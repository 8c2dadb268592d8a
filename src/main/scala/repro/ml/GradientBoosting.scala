package repro.ml

import scala.util.Random

/** Gradient-boosted regression trees (Friedman, Ann. Statist. 2001): one
  * boosting loop for any differentiable loss. The score starts at
  * `start(y)`; each round fits a tree to the negative gradient
  * y − link(score) and adds it, shrunk by the learning rate, to the score.
  * Squared loss is [[GBMRegressor]], logistic loss [[GBMClassifier]].
  */
sealed abstract class GradientBoosting(
    val nTrees: Int,
    learningRate: Double,
    val maxDepth: Int,
    val minLeaf: Int,
    val seed: Long,
) {
  private var f0 = 0.0
  private var trees: Vector[RegressionTree] = Vector.empty
  private var nFeatures = 0

  /** The initial score for labels `y`. */
  protected def start(y: Array[Double]): Double

  /** The label the loss predicts from a score. */
  protected def link(score: Double): Double

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, s"${getClass.getSimpleName}: empty input")
    nFeatures = x(0).length
    val rng = new Random(seed)
    f0 = start(y)
    trees = Vector.empty
    val scores = Array.fill(y.length)(f0)
    val data = new RegressionTree.Binned(x)
    val rows = Array.range(0, y.length)
    val resid = new Array[Double](y.length)
    for (_ <- 0 until nTrees) {
      var i = 0
      while (i < y.length) { resid(i) = y(i) - link(scores(i)); i += 1 }
      trees :+= new RegressionTree(maxDepth, minLeaf).fit(data, resid, rng, rows)
      // each row's tree output is the leaf it landed in while the tree grew
      i = 0
      while (i < y.length) { scores(i) += learningRate * data.fitted(i); i += 1 }
    }
    this
  }

  /** The fitted score of one row, before the link. */
  protected def score(xi: Array[Double]): Double =
    f0 + learningRate * trees.foldLeft(0.0)((s, t) => s + t.predict(xi))

  /** Normalized feature importances (sum to 1 unless all-zero). */
  def importances: Array[Double] = RegressionTree.summedImportances(trees, nFeatures)
}

/** Squared-loss GBM: starts at the label mean, identity link, learning rate
  * 0.1. Stands in for the paper's scikit-learn GradientBoosting ("GBmovie")
  * and is the building block of the MO-GBM estimator.
  */
final class GBMRegressor(
    nTrees: Int = 40,
    maxDepth: Int = 3,
    minLeaf: Int = 5,
    seed: Long = 7,
) extends GradientBoosting(nTrees, learningRate = 0.1, maxDepth, minLeaf, seed) {
  protected def start(y: Array[Double]): Double = y.sum / y.length
  protected def link(score: Double): Double = score

  def predict(xi: Array[Double]): Double = score(xi)
}

/** Binary logistic-loss GBM on 0/1 labels: starts at the log-odds, sigmoid
  * link, learning rate 0.15. The LightGBM stand-in of "LGCmental".
  */
final class GBMClassifier(
    nTrees: Int = 40,
    maxDepth: Int = 3,
    minLeaf: Int = 5,
    seed: Long = 11,
) extends GradientBoosting(nTrees, learningRate = 0.15, maxDepth, minLeaf, seed) {
  protected def start(y: Array[Double]): Double = {
    require(y.forall(v => v == 0.0 || v == 1.0), "GBMClassifier: labels must be 0/1")
    val pos = y.count(_ == 1.0).toDouble.max(0.5)
    val neg = (y.length - pos).max(0.5)
    math.log(pos / neg)
  }

  protected def link(score: Double): Double = 1.0 / (1.0 + math.exp(-score))

  /** P(y = 1 | x). */
  def predictProba(xi: Array[Double]): Double = link(score(xi))
}
