package repro.ml

import scala.util.Random

/** Bagged CART forest — the "RFhouse" model of Task T2 and the case-study
  * classifier. Classification averages per-tree 0/1 regressions into a
  * probability; regression averages leaf means.
  */
final class RandomForest(
    val nTrees: Int = 30,
    val maxDepth: Int = 6,
    val minLeaf: Int = 3,
    val seed: Long = 13,
    val classification: Boolean = true,
) {
  private var trees: Vector[RegressionTree] = Vector.empty

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "RandomForest: empty input")
    if (classification)
      require(y.forall(v => v == 0.0 || v == 1.0), "RandomForest: labels must be 0/1")
    val rng = new Random(seed)
    val nFeat = x(0).length
    val mtry = math.max(1, math.round(math.sqrt(nFeat.toDouble)).toInt)
    trees = Vector.tabulate(nTrees) { _ =>
      val sample = Array.fill(x.length)(rng.nextInt(x.length)) // bootstrap
      new RegressionTree(maxDepth, minLeaf, featuresPerSplit = mtry).fit(x, y, rng, sample)
    }
    this
  }

  /** Mean tree output: probability for classification, value for regression. */
  def predictScore(xi: Array[Double]): Double =
    trees.foldLeft(0.0)((s, t) => s + t.predict(xi)) / trees.length

  def predict(xi: Array[Double]): Double =
    if (classification) { if (predictScore(xi) >= 0.5) 1.0 else 0.0 } else predictScore(xi)

  def predictScoreAll(x: Array[Array[Double]]): Array[Double] = x.map(predictScore)
  def predictAll(x: Array[Array[Double]]): Array[Double] = x.map(predict)

  def importances: Array[Double] = {
    require(trees.nonEmpty, "forest not fitted")
    RegressionTree.summedImportances(trees, trees.head.importances.length)
  }
}
