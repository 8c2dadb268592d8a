package repro.ml

import scala.util.Random

/** Bagged CART forest classifier — the "RFhouse" model of Task T2. Each
  * tree regresses the 0/1 label on a bootstrap sample; their mean output is
  * the positive-class probability.
  */
final class RandomForest(
    val nTrees: Int = 30,
    val maxDepth: Int = 6,
    val minLeaf: Int = 3,
    val seed: Long = 13,
) {
  private var trees: Vector[RegressionTree] = Vector.empty

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "RandomForest: empty input")
    require(y.forall(v => v == 0.0 || v == 1.0), "RandomForest: labels must be 0/1")
    val rng = new Random(seed)
    val nFeat = x(0).length
    val mtry = math.max(1, math.round(math.sqrt(nFeat.toDouble)).toInt)
    val data = new RegressionTree.Binned(x)
    trees = Vector.tabulate(nTrees) { _ =>
      val sample = Array.fill(x.length)(rng.nextInt(x.length)) // bootstrap
      new RegressionTree(maxDepth, minLeaf, featuresPerSplit = mtry).fit(data, y, rng, sample)
    }
    this
  }

  /** P(y = 1 | x): the mean tree output. */
  def predictScore(xi: Array[Double]): Double =
    trees.foldLeft(0.0)((s, t) => s + t.predict(xi)) / trees.length
}
