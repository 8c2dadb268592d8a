package repro.ml

import java.util.stream.IntStream

/** Multi-output Gradient Boosting Model — the paper's default performance
  * estimator E (Section 2, "Estimators"): one GBM regressor per output
  * measure, fitted jointly on the same state-feature matrix so a single
  * call returns the whole performance vector.
  */
final class MOGBM(
    val nOutputs: Int,
    val nTrees: Int = 60,
    val maxDepth: Int = 3,
    val minLeaf: Int = 2,
    val seed: Long = 17,
) {
  require(nOutputs >= 1, "MOGBM: need at least one output")
  private var models: Vector[GBMRegressor] = Vector.empty

  def fit(x: Array[Array[Double]], ys: Array[Array[Double]]): this.type = {
    require(x.length == ys.length && x.nonEmpty, "MOGBM: bad input")
    require(ys.forall(_.length == nOutputs), "MOGBM: output arity mismatch")
    // each output's GBM reads only its labels and seed: all fit at once on the common pool
    val fitted = new Array[GBMRegressor](nOutputs)
    IntStream.range(0, nOutputs).parallel().forEach { o =>
      fitted(o) = new GBMRegressor(nTrees, maxDepth, minLeaf, seed + o).fit(x, ys.map(_(o)))
    }
    models = fitted.toVector
    this
  }

  /** One call, full performance vector — matching the paper's "single call
    * with high accuracy" property.
    */
  def predict(xi: Array[Double]): Array[Double] = {
    require(models.nonEmpty, "MOGBM not fitted")
    models.map(_.predict(xi)).toArray
  }
}
