package repro.baselines

import repro.core.TabularTask
import repro.ml._

/** Feature-selection baselines operating on the universal table:
  *
  *  - SkSFM — scikit-learn `SelectFromModel` stand-in: fit a GBM on all
  *    features and keep those whose importance is ≥ the mean importance
  *    (sklearn's default threshold).
  *  - H2O — its feature-selection module "fits features and predictors into
  *    a linear model": fit a standardized linear model and keep features
  *    whose |coefficient| is ≥ the mean |coefficient|.
  *
  * Both take s_U, D_U's driver-side Frame, and return the kept attributes in
  * its column order: a column-reduced table over all rows — the behaviour
  * the paper contrasts with MODis (cheaper training, accuracy loss).
  */
object FeatureSelect {

  /** SkSFM: GBM importances ≥ mean importance. */
  def skSFM(sU: Frame, task: TabularTask): Vector[String] = {
    val x = imputed(sU)
    val importances =
      if (task.lake.classification)
        new GBMClassifier(nTrees = 30).fit(x, sU.y).importances
      else
        new GBMRegressor(nTrees = 30).fit(x, sU.y).importances
    atLeastMean(sU.names, importances)
  }

  /** H2O-style: standardized linear-model coefficients ≥ mean |coef|. */
  def h2o(sU: Frame, task: TabularTask): Vector[String] = {
    val x = imputed(sU)
    val coefs =
      if (task.lake.classification)
        new LogisticRegressionModel().fit(x, sU.y).coefficients
      else
        new RidgeRegression().fit(x, sU.y).coefficients
    atLeastMean(sU.names, coefs.map(math.abs))
  }

  /** Every row of s_U, NaN replaced by its column's mean. */
  private def imputed(sU: Frame): Array[Array[Double]] =
    sU.imputedRows(Array.range(0, sU.nRows), sU.columnMeans(Array.range(0, sU.nRows)))

  /** The names weighing at least the mean weight, in order; else the first name. */
  private def atLeastMean(names: Vector[String], weights: Array[Double]): Vector[String] = {
    val thr = weights.sum / weights.length
    val keep = names.indices.collect { case i if weights(i) >= thr => names(i) }.toVector
    if (keep.nonEmpty) keep else names.take(1)
  }
}
