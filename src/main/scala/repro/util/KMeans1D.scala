package repro.util

/** Deterministic 1-D k-means used to compress active domains into value
  * clusters (the paper derives "equality literals, one for each cluster" by
  * k-means over each attribute's adom, Section 6).
  *
  * Centroids are initialized at evenly spaced quantiles, so the result is a
  * pure function of the input values and k.
  */
object KMeans1D {
  private val MaxIter = 50 // Lloyd iterations per fit, at most

  /** Cluster result: sorted centroids and the split boundaries between
    * consecutive centroids (midpoints). A value belongs to cluster i iff
    * boundaries(i-1) < v <= boundaries(i) (with open ends).
    */
  final case class Clustering(centroids: Array[Double], boundaries: Array[Double]) {
    def k: Int = centroids.length

    /** Cluster id of a value (nearest centroid, via boundaries). */
    def assign(v: Double): Int = {
      var i = 0
      while (i < boundaries.length && v > boundaries(i)) i += 1
      i
    }
  }

  /** Run k-means on the distinct values of `xs` with at most `k` clusters.
    * If there are fewer than `k` distinct values, one cluster per value.
    */
  def fit(xs: Array[Double], k: Int): Clustering = {
    require(k >= 1, "k must be >= 1")
    val distinct = xs.distinct.sorted
    if (distinct.isEmpty) return Clustering(Array(0.0), Array.empty)
    if (distinct.length <= k)
      return withBoundaries(distinct)

    // Quantile initialization over distinct values.
    var cents = Array.tabulate(k) { i =>
      distinct(((i + 0.5) / k * distinct.length).toInt.min(distinct.length - 1))
    }.distinct.sorted
    var iter = 0
    var moved = true
    while (moved && iter < MaxIter) {
      val cl = withBoundaries(cents)
      val sums = new Array[Double](cl.k)
      val cnts = new Array[Long](cl.k)
      var i = 0
      while (i < xs.length) {
        val c = cl.assign(xs(i))
        sums(c) += xs(i); cnts(c) += 1
        i += 1
      }
      val next = (0 until cl.k).flatMap { c =>
        if (cnts(c) == 0) None else Some(sums(c) / cnts(c))
      }.toArray.distinct.sorted
      moved = !java.util.Arrays.equals(next, cents)
      cents = next
      iter += 1
    }
    withBoundaries(cents)
  }

  private def withBoundaries(cents: Array[Double]): Clustering = {
    val b = new Array[Double](math.max(0, cents.length - 1))
    var i = 0
    while (i < b.length) { b(i) = (cents(i) + cents(i + 1)) / 2.0; i += 1 }
    Clustering(cents, b)
  }
}
