package repro.util

/** Small numeric/statistics helpers shared by the MODis core and the ML
  * substrate: rank correlation (for the correlation graph G_C of BiMODis),
  * vector distances (for DivMODis' diversification score), and basic
  * moments.
  */
object Stats {

  /** `f(0) + f(1) + ... + f(n - 1)`, added left to right from `f(0)` (0.0
    * when `n` is 0): the additions `.sum` makes of a non-empty sequence,
    * without boxing a value.
    */
  def sumOf(n: Int)(f: Int => Double): Double = {
    if (n == 0) return 0.0
    var s = f(0)
    var i = 1
    while (i < n) { s += f(i); i += 1 }
    s
  }

  /** How many of `0 until n` satisfy `p`, without boxing an index. */
  def countOf(n: Int)(p: Int => Boolean): Int = {
    var c = 0
    var i = 0
    while (i < n) { if (p(i)) c += 1; i += 1 }
    c
  }

  /** Sum of `xs` in order, as `xs.sum` adds it. */
  def sum(xs: Array[Double]): Double = sumOf(xs.length)(xs(_))

  /** Arithmetic mean; 0.0 for an empty input. */
  def mean(xs: Array[Double]): Double =
    if (xs.isEmpty) 0.0 else sum(xs) / xs.length

  /** Population variance; 0.0 for fewer than two elements. */
  def variance(xs: Array[Double]): Double = {
    if (xs.length < 2) return 0.0
    val m = mean(xs)
    sumOf(xs.length) { i => val d = xs(i) - m; d * d } / xs.length
  }

  /** Pearson correlation coefficient; 0.0 when either side is constant. */
  def pearson(xs: Array[Double], ys: Array[Double]): Double = {
    require(xs.length == ys.length, "pearson: length mismatch")
    val n = xs.length
    if (n < 2) return 0.0
    val mx = mean(xs); val my = mean(ys)
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    var i = 0
    while (i < n) {
      val dx = xs(i) - mx; val dy = ys(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
      i += 1
    }
    if (sxx == 0.0 || syy == 0.0) 0.0 else sxy / math.sqrt(sxx * syy)
  }

  /** Fractional ranks (1-based, ties get the average rank). */
  def ranks(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    val order = xs.indices.sortBy(xs(_))
    val r = new Array[Double](n)
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && xs(order(j + 1)) == xs(order(i))) j += 1
      val avg = (i + j + 2) / 2.0 // average of 1-based ranks i+1..j+1
      var k = i
      while (k <= j) { r(order(k)) = avg; k += 1 }
      i = j + 1
    }
    r
  }

  /** Spearman rank correlation — the edge weight of the paper's correlation
    * graph G_C (Section 5.3).
    */
  def spearman(xs: Array[Double], ys: Array[Double]): Double =
    pearson(ranks(xs), ranks(ys))

  /** Cosine similarity; 0.0 when either vector is all-zero. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "cosine: length mismatch")
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na == 0.0 || nb == 0.0) 0.0 else dot / math.sqrt(na * nb)
  }

  /** Euclidean distance. */
  def euclid(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "euclid: length mismatch")
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Clip x into [lo, hi]. */
  def clip(x: Double, lo: Double, hi: Double): Double =
    math.min(hi, math.max(lo, x))
}
