package repro.ml

import scala.util.Random

/** Gradient-boosted regression trees — stands in for the paper's
  * scikit-learn GradientBoosting ("GBmovie"), LightGBM ("LGCmental"), and
  * the building block of the MO-GBM estimator.
  */
final class GBMRegressor(
    val nTrees: Int = 40,
    val learningRate: Double = 0.1,
    val maxDepth: Int = 3,
    val minLeaf: Int = 5,
    val subsample: Double = 1.0,
    val seed: Long = 7,
) {
  private var base = 0.0
  private var trees: Vector[RegressionTree] = Vector.empty
  private var nFeatures = 0

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "GBMRegressor: empty input")
    nFeatures = x(0).length
    val rng = new Random(seed)
    base = y.sum / y.length
    val pred = Array.fill(y.length)(base)
    val ts = Vector.newBuilder[RegressionTree]
    var t = 0
    while (t < nTrees) {
      val resid = Array.tabulate(y.length)(i => y(i) - pred(i))
      val sample =
        if (subsample >= 1.0) null
        else Array.range(0, y.length).filter(_ => rng.nextDouble() < subsample) match {
          case s if s.length >= 2 * minLeaf => s
          case _                            => null
        }
      val tree = new RegressionTree(maxDepth, minLeaf).fit(x, resid, rng, sample)
      ts += tree
      var i = 0
      while (i < y.length) { pred(i) += learningRate * tree.predict(x(i)); i += 1 }
      t += 1
    }
    trees = ts.result()
    this
  }

  def predict(xi: Array[Double]): Double =
    base + learningRate * trees.foldLeft(0.0)((s, t) => s + t.predict(xi))

  def predictAll(x: Array[Array[Double]]): Array[Double] = x.map(predict)

  /** Normalized feature importances (sum to 1 unless all-zero). */
  def importances: Array[Double] = RegressionTree.summedImportances(trees, nFeatures)
}

/** Binary GBM classifier with logistic loss and Newton leaf steps folded
  * into a residual-fitting approximation (residual = y − p).
  */
final class GBMClassifier(
    val nTrees: Int = 40,
    val learningRate: Double = 0.15,
    val maxDepth: Int = 3,
    val minLeaf: Int = 5,
    val seed: Long = 11,
) {
  private var f0 = 0.0
  private var trees: Vector[RegressionTree] = Vector.empty
  private var nFeatures = 0

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "GBMClassifier: empty input")
    require(y.forall(v => v == 0.0 || v == 1.0), "GBMClassifier: labels must be 0/1")
    nFeatures = x(0).length
    val rng = new Random(seed)
    val pos = y.count(_ == 1.0).toDouble.max(0.5)
    val neg = (y.length - pos).max(0.5)
    f0 = math.log(pos / neg)
    val score = Array.fill(y.length)(f0)
    val ts = Vector.newBuilder[RegressionTree]
    var t = 0
    while (t < nTrees) {
      val resid = Array.tabulate(y.length)(i => y(i) - sigmoid(score(i)))
      val tree = new RegressionTree(maxDepth, minLeaf).fit(x, resid, rng)
      ts += tree
      var i = 0
      while (i < y.length) { score(i) += learningRate * tree.predict(x(i)); i += 1 }
      t += 1
    }
    trees = ts.result()
    this
  }

  /** P(y = 1 | x). */
  def predictProba(xi: Array[Double]): Double =
    sigmoid(f0 + learningRate * trees.foldLeft(0.0)((s, t) => s + t.predict(xi)))

  def predict(xi: Array[Double]): Double = if (predictProba(xi) >= 0.5) 1.0 else 0.0

  def predictProbaAll(x: Array[Array[Double]]): Array[Double] = x.map(predictProba)

  def importances: Array[Double] = RegressionTree.summedImportances(trees, nFeatures)
}
