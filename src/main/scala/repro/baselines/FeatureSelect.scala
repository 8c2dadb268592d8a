package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
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
  * Both output a column-reduced table over all rows — the behaviour the
  * paper contrasts with MODis (cheaper training, accuracy loss).
  */
object FeatureSelect {

  /** A table's mean-imputed feature matrix, rows in key order. */
  private def imputedFrame(df: DataFrame, task: TabularTask): Frame = {
    val (_, f) = Frame.collect(df, task.lake.key, task.lake.target, df.columns.toSeq)
    f.imputed(f.columnMeans)
  }

  private def selectColumns(df: DataFrame, task: TabularTask, keep: Seq[String]): DataFrame = {
    val kept = if (keep.nonEmpty) keep else df.columns
      .filterNot(c => c == task.lake.key || c == task.lake.target).take(1).toSeq
    df.select((task.lake.key +: task.lake.target +: kept.toList).map(col): _*)
  }

  /** SkSFM: GBM importances ≥ mean importance. */
  def skSFM(df: DataFrame, task: TabularTask): DataFrame = {
    val frame = imputedFrame(df, task)
    val importances =
      if (task.lake.classification)
        new GBMClassifier(nTrees = 30).fit(frame.x, frame.y).importances
      else
        new GBMRegressor(nTrees = 30).fit(frame.x, frame.y).importances
    val thr = importances.sum / importances.length
    val keep = frame.names.indices.collect { case i if importances(i) >= thr => frame.names(i) }
    selectColumns(df, task, keep)
  }

  /** H2O-style: standardized linear-model coefficients ≥ mean |coef|. */
  def h2o(df: DataFrame, task: TabularTask): DataFrame = {
    val frame = imputedFrame(df, task)
    val coefs =
      if (task.lake.classification)
        new LogisticRegressionModel().fit(frame.x, frame.y).coefficients
      else
        new RidgeRegression().fit(frame.x, frame.y).coefficients
    val mags = coefs.map(math.abs)
    val thr = mags.sum / mags.length
    val keep = frame.names.indices.collect { case i if mags(i) >= thr => frame.names(i) }
    selectColumns(df, task, keep)
  }
}
