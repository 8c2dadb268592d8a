package repro.ml

import repro.util.Stats

/** Linear substrates: ridge regression (closed form, used by the "LRavocado"
  * task model and H2O-style feature selection) and logistic regression via
  * gradient descent (classification variant). Inputs are standardized
  * internally so coefficient magnitudes are comparable across features —
  * the property the H2O feature-selection baseline relies on.
  */
final class RidgeRegression(val lambda: Double = 1e-3) {
  private var w: Array[Double] = Array.empty // on standardized features
  private var b = 0.0
  private var std: Standardizer = _

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "ridge: empty input")
    val n = x.length; val d = x(0).length
    std = new Standardizer(x)
    // Normal equations on standardized X with intercept handled via centering.
    val ym = Stats.sum(y) / n
    val a = Array.ofDim[Double](d, d)
    val g = new Array[Double](d)
    val xi = new Array[Double](d) // row i, standardized
    var i = 0
    while (i < n) {
      std.into(x(i), xi)
      val yc = y(i) - ym
      var p = 0
      while (p < d) {
        g(p) += xi(p) * yc
        var q = p
        while (q < d) { a(p)(q) += xi(p) * xi(q); q += 1 }
        p += 1
      }
      i += 1
    }
    var p = 0
    while (p < d) {
      a(p)(p) += lambda * n
      var q = p + 1
      while (q < d) { a(q)(p) = a(p)(q); q += 1 }
      p += 1
    }
    w = solve(a, g)
    b = ym
    this
  }

  def predict(xi: Array[Double]): Double = {
    var s = b
    var j = 0
    while (j < w.length) { s += w(j) * std(xi, j); j += 1 }
    s
  }

  /** Coefficients on standardized features (|coef| comparable across cols). */
  def coefficients: Array[Double] = w.clone()

  /** Gaussian elimination with partial pivoting. */
  private def solve(a: Array[Array[Double]], bVec: Array[Double]): Array[Double] = {
    val d = bVec.length
    val m = Array.tabulate(d)(i => a(i) :+ bVec(i))
    var col = 0
    while (col < d) {
      var piv = col
      var r = col + 1
      while (r < d) { if (math.abs(m(r)(col)) > math.abs(m(piv)(col))) piv = r; r += 1 }
      val tmp = m(col); m(col) = m(piv); m(piv) = tmp
      val pv = m(col)(col)
      if (math.abs(pv) > 1e-12) {
        r = 0
        while (r < d) {
          if (r != col) {
            val f = m(r)(col) / pv
            var c = col
            while (c <= d) { m(r)(c) -= f * m(col)(c); c += 1 }
          }
          r += 1
        }
      }
      col += 1
    }
    Array.tabulate(d)(i => if (math.abs(m(i)(i)) > 1e-12) m(i)(d) / m(i)(i) else 0.0)
  }
}

/** L2-regularized logistic regression trained by full-batch gradient descent
  * on standardized features. Deterministic.
  */
final class LogisticRegressionModel {
  private val Lambda = 1e-3
  private val Lr = 0.5
  private val Iters = 200
  private var w: Array[Double] = Array.empty
  private var b = 0.0
  private var std: Standardizer = _

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
    require(x.nonEmpty, "logreg: empty input")
    require(y.forall(v => v == 0.0 || v == 1.0), "logreg: labels must be 0/1")
    val n = x.length; val d = x(0).length
    std = new Standardizer(x)
    val xs = x.map(std.apply)

    w = new Array[Double](d); b = 0.0
    var it = 0
    while (it < Iters) {
      val gw = new Array[Double](d)
      var gb = 0.0
      var i = 0
      while (i < n) {
        var z = b
        var j = 0
        while (j < d) { z += w(j) * xs(i)(j); j += 1 }
        val err = sigmoid(z) - y(i)
        gb += err
        j = 0
        while (j < d) { gw(j) += err * xs(i)(j); j += 1 }
        i += 1
      }
      b -= Lr * gb / n
      var j = 0
      while (j < d) { w(j) -= Lr * (gw(j) / n + Lambda * w(j)); j += 1 }
      it += 1
    }
    this
  }

  def predictProba(xi: Array[Double]): Double = {
    var z = b
    var j = 0
    while (j < w.length) { z += w(j) * (xi(j) - std.mu(j)) / std.sd(j); j += 1 }
    sigmoid(z)
  }

  def coefficients: Array[Double] = w.clone()
}

/** Per-column mean and standard deviation of a training matrix (1.0 for a
  * constant column): the standardization both linear models fit on.
  */
private final class Standardizer(x: Array[Array[Double]]) {
  val mu = new Array[Double](x(0).length)
  val sd = new Array[Double](mu.length)
  for (xi <- x; j <- mu.indices) mu(j) += xi(j)
  for (j <- mu.indices) mu(j) /= x.length
  for (xi <- x; j <- mu.indices) { val dv = xi(j) - mu(j); sd(j) += dv * dv }
  for (j <- sd.indices) { sd(j) = math.sqrt(sd(j) / x.length); if (sd(j) < 1e-9) sd(j) = 1.0 }

  /** Value `j` of `xi`, standardized. */
  def apply(xi: Array[Double], j: Int): Double = (xi(j) - mu(j)) / sd(j)

  def apply(xi: Array[Double]): Array[Double] = {
    val out = new Array[Double](xi.length)
    into(xi, out)
    out
  }

  /** `xi` standardized into `out`. */
  def into(xi: Array[Double], out: Array[Double]): Unit = {
    var j = 0
    while (j < out.length) { out(j) = apply(xi, j); j += 1 }
  }
}
