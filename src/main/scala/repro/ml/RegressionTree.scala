package repro.ml

import java.util.stream.IntStream
import scala.util.Random

/** CART regression tree with variance-reduction splits — the shared weak
  * learner behind the GBM, random-forest, and MO-GBM substrates (S8 in
  * DESIGN.md). Deterministic given the caller-provided RNG.
  *
  * Splits are found on histograms of y sums and row counts per bin, as in
  * LightGBM (Ke et al., NeurIPS 2017) and XGBoost's `hist` method (Chen &
  * Guestrin, KDD 2016), over bins made once per ensemble fit
  * ([[RegressionTree.Binned]]). A split is a boundary between two bins.
  */
final class RegressionTree(
    val maxDepth: Int = 4,
    val minLeaf: Int = 5,
    /** Number of candidate features per split; <=0 means all. */
    val featuresPerSplit: Int = 0,
) {
  import RegressionTree._

  private var rootOpt: Option[Node] = None
  private var importanceAcc: Array[Double] = Array.empty

  def root: Node = rootOpt.getOrElse(throw new IllegalStateException("tree not fitted"))

  /** Per-feature total variance reduction accumulated over splits. */
  def importances: Array[Double] = importanceAcc.clone()

  def fit(x: Array[Array[Double]], y: Array[Double], rng: Random = new Random(0)): this.type =
    fit(new Binned(x), y, rng, Array.range(0, x.length))

  /** Fit on `rows` of `data`, at most `data.nRows` of them (a row listed
    * twice counts twice, as in a bootstrap). Afterwards `data.fitted` holds
    * the value of the leaf each of those rows landed in.
    */
  def fit(data: Binned, y: Array[Double], rng: Random, rows: Array[Int]): this.type = {
    require(data.nRows == y.length && rows.nonEmpty && rows.length <= data.nRows,
      "tree: empty or mismatched input")
    importanceAcc = new Array[Double](data.nFeatures)
    rootOpt = Some(new Grower(data, y, rng, rows).root)
    this
  }

  def predict(xi: Array[Double]): Double = {
    @annotation.tailrec def walk(n: Node): Double = n match {
      case Leaf(v)           => v
      case Split(f, t, l, r) => walk(if (xi(f) <= t) l else r)
    }
    walk(root)
  }

  /** One tree's growth in `data`'s buffers: a node is a range `lo until hi`
    * of `rows`, partitioned stably in place at every split. The root's
    * histogram is `data`'s buffer 0, with `data`'s counts of all rows when
    * the sample is every row in order; a node at depth `d` counts its
    * smaller child into buffer `d + 1` and leaves the larger child its own
    * buffer, so a pending right child's buffer is never one its left
    * sibling's subtree writes.
    */
  private final class Grower(data: Binned, y: Array[Double], rng: Random, sample: Array[Int]) {
    private val nFeat = data.nFeatures
    private val rows = data.rows
    System.arraycopy(sample, 0, rows, 0, sample.length)
    private val everyFeature = Array.range(0, nFeat)
    private val everyRowOnce = sample.length == data.nRows && {
      var i = 0
      while (i < sample.length && sample(i) == i) i += 1
      i == sample.length
    }

    /** Sum of y over `rows(lo until hi)`, in that order. */
    private def sumOf(lo: Int, hi: Int): Double = {
      var sum = 0.0
      var i = lo
      while (i < hi) { sum += y(rows(i)); i += 1 }
      sum
    }

    val root: Node = grow(0, sample.length, 0, sumOf(0, sample.length), null)

    /** The leaf of `rows(lo until hi)`: each row's fitted value is its mean. */
    private def leaf(lo: Int, hi: Int, value: Double): Node = {
      var i = lo
      while (i < hi) { data.fitted(rows(i)) = value; i += 1 }
      Leaf(value)
    }

    /** The node of `rows(lo until hi)`, whose y sums to `sum`; `counted` is
      * its histogram as its parent made it (null at the root, which counts
      * its own).
      */
    private def grow(lo: Int, hi: Int, depth: Int, sum: Double, counted: Array[Double]): Node = {
      val n = hi - lo
      val meanHere = sum / n
      if (depth >= maxDepth || n < 2 * minLeaf) return leaf(lo, hi, meanHere)

      var sse = 0.0
      var i = lo
      while (i < hi) { val d = y(rows(i)) - meanHere; sse += d * d; i += 1 }
      if (sse <= 1e-12) return leaf(lo, hi, meanHere)

      val hist =
        if (counted != null) counted
        else if (everyRowOnce) data.allRowsHistogram(y)
        else data.histogram(0, lo, hi, y)
      val cand =
        if (featuresPerSplit <= 0 || featuresPerSplit >= nFeat) everyFeature
        else rng.shuffle((0 until nFeat).toList).take(featuresPerSplit).toArray

      // the first largest gain, in candidate and bin order, above 1e-12 past the last
      val parentTerm = sum * sum / n
      var best = 0.0
      var feat = -1
      var bin = -1
      var c = 0
      while (c < cand.length) {
        val f = cand(c)
        val base = 2 * data.offset(f)
        val last = data.nBins(f) - 1
        var leftSum = 0.0
        var nl = 0.0
        var b = 0
        while (b < last) {
          val count = hist(base + 2 * b + 1)
          if (count > 0) {
            leftSum += hist(base + 2 * b)
            nl += count
            val nr = n - nl
            // at least minLeaf rows, and at least one, on each side
            if (nl >= minLeaf && nr >= minLeaf && nr > 0) {
              val rightSum = sum - leftSum
              val g = leftSum * leftSum / nl + rightSum * rightSum / nr - parentTerm
              if (g > best + 1e-12) { best = g; feat = f; bin = b }
            }
          }
          b += 1
        }
        c += 1
      }
      if (feat < 0) return leaf(lo, hi, meanHere)
      importanceAcc(feat) += best

      val mid = data.partition(lo, hi, feat, bin)
      val (sumL, sumR) = (sumOf(lo, mid), sumOf(mid, hi))
      // the smaller child (the left one on a tie) is counted from its rows, the
      // larger one is this node minus it, in place; leaves by depth need neither
      val leftSmaller = mid - lo <= hi - mid
      val (sLo, sHi) = if (leftSmaller) (lo, mid) else (mid, hi)
      val small = if (depth + 1 == maxDepth) null else data.histogram(depth + 1, sLo, sHi, y)
      i = 0
      while (small != null && i < hist.length) { hist(i) -= small(i); i += 1 }
      Split(feat, data.thresholds(feat)(bin),
        grow(lo, mid, depth + 1, sumL, if (leftSmaller) small else hist),
        grow(mid, hi, depth + 1, sumR, if (leftSmaller) hist else small))
    }
  }
}

object RegressionTree {

  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** The most bins a feature is cut into: a code fits in a byte. */
  private[ml] val MaxBins = 255

  /** A training matrix `x` binned for one ensemble fit, with the buffers its
    * trees grow in; it serves one fit at a time. The bins are a function of
    * `x` alone: a feature with at most [[MaxBins]] distinct values has one
    * bin per value, and one with more is cut greedily into bins of about
    * equal counts that never split a value. The threshold after a bin is
    * the midpoint between its largest value and the next value (the largest
    * value itself when the two are adjacent doubles), so `predict`'s
    * `x(r)(f) <= threshold` partitions rows exactly as their codes do.
    * `-0.0` and `0.0` are one value. NaN is rejected: callers impute first.
    */
  final class Binned(x: Array[Array[Double]]) {
    require(x.nonEmpty, "tree: empty input")
    val nRows: Int = x.length
    val nFeatures: Int = x(0).length
    /** Each feature's thresholds, one fewer than its bins. */
    private[ml] val thresholds: Array[Array[Double]] = new Array[Array[Double]](nFeatures)
    /** Row-major bin codes: row `r`'s code of feature `f` is at `r * nFeatures + f`. */
    private[ml] val codes: Array[Byte] = new Array[Byte](nRows * nFeatures)
    // each feature's thresholds are a function of its column, and each
    // row's codes of its values, so both are found on the common pool
    IntStream.range(0, nFeatures).parallel().forEach(f => thresholds(f) = cutPoints(f))
    IntStream.range(0, nRows).parallel().forEach(r => encode(r))
    private[ml] def nBins(f: Int): Int = thresholds(f).length + 1
    /** Where each feature's bins start in a histogram. */
    private[ml] val offset: Array[Int] = thresholds.scanLeft(0)(_ + _.length + 1)
    private[ml] def code(r: Int, f: Int): Int = codes(r * nFeatures + f) & 0xff

    /** Each training row's leaf value in the last tree grown on these bins. */
    val fitted: Array[Double] = new Array[Double](nRows)

    /** A tree's row list. */
    private[ml] val rows = new Array[Int](nRows)
    private val spill = new Array[Int](nRows)
    private val histograms = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]

    private def buffer(k: Int): Array[Double] = {
      while (histograms.length <= k) histograms += new Array[Double](2 * offset(nFeatures))
      histograms(k)
    }

    /** Histogram buffer `k`, filled with the sum of `y` and the count of the
      * rows `rows(lo until hi)` in each bin, added in row order. Bin `b` of
      * feature `f` holds its sum at `2 * (offset(f) + b)` and its count
      * right after.
      */
    private[ml] def histogram(k: Int, lo: Int, hi: Int, y: Array[Double]): Array[Double] = {
      val h = buffer(k)
      java.util.Arrays.fill(h, 0.0)
      var i = lo
      while (i < hi) {
        val r = rows(i)
        val yr = y(r)
        val base = r * nFeatures
        var f = 0
        while (f < nFeatures) {
          val at = 2 * (offset(f) + (codes(base + f) & 0xff))
          h(at) += yr
          h(at + 1) += 1.0
          f += 1
        }
        i += 1
      }
      h
    }

    /** Each bin's count of every row once, in a histogram's layout with
      * zero sums: the counts of the root of every tree grown on all rows, as
      * every GBM tree is. Kept from the first such root's histogram, not
      * counted by a pass of its own: a loop that runs once per fit stays
      * uncompiled, and such a pass cost more than it saved.
      */
    private var allRowCounts: Array[Double] = null

    /** [[histogram]] into buffer 0 of `rows(0 until nRows)` when they are
      * every row once. After the first call, the counts are copied from
      * [[allRowCounts]] and only the sums are added, in row order.
      */
    private[ml] def allRowsHistogram(y: Array[Double]): Array[Double] = {
      if (allRowCounts == null) {
        val first = histogram(0, 0, nRows, y)
        allRowCounts = first.clone()
        var b = 0
        while (b < allRowCounts.length) { allRowCounts(b) = 0.0; b += 2 }
        return first
      }
      val h = buffer(0)
      System.arraycopy(allRowCounts, 0, h, 0, h.length)
      var i = 0
      while (i < nRows) {
        val r = rows(i)
        val yr = y(r)
        val base = r * nFeatures
        var f = 0
        while (f < nFeatures) { h(2 * (offset(f) + (codes(base + f) & 0xff))) += yr; f += 1 }
        i += 1
      }
      h
    }

    /** Stable in-place partition of `rows(lo until hi)` into the rows whose
      * code of `f` is at most `bin`, then the rest; returns the end of the
      * first part.
      */
    private[ml] def partition(lo: Int, hi: Int, f: Int, bin: Int): Int = {
      var l = lo
      var s = 0
      var i = lo
      while (i < hi) {
        val r = rows(i)
        // both writes, then one count moves: no branch on a random bit
        val left = if (code(r, f) <= bin) 1 else 0
        rows(l) = r; spill(s) = r
        l += left; s += 1 - left
        i += 1
      }
      System.arraycopy(spill, 0, rows, l, s)
      l
    }

    /** Writes row `r`'s codes: for each feature, the first bin whose
      * threshold the row's value is at most, else the last.
      */
    private def encode(r: Int): Unit = {
      var f = 0
      while (f < nFeatures) {
        // the count of thresholds below the value, in steps that do not depend on it
        val t = thresholds(f)
        val value = x(r)(f)
        var base = 0
        var len = t.length
        while (len > 1) { val half = len >>> 1; if (t(base + half) < value) base += half; len -= half }
        codes(r * nFeatures + f) = (if (len == 1 && t(base) < value) base + 1 else base).toByte
        f += 1
      }
    }

    /** Feature `f`'s thresholds. */
    private def cutPoints(f: Int): Array[Double] = {
      val v = new Array[Double](nRows)
      var i = 0
      while (i < nRows) { v(i) = x(i)(f); i += 1 }
      java.util.Arrays.sort(v)
      require(!v(nRows - 1).isNaN, s"tree: feature $f has NaN")
      var distinct = 1
      i = 1
      while (i < nRows) { if (v(i) != v(i - 1)) distinct += 1; i += 1 }
      val cuts = new Array[Double](math.min(distinct, MaxBins) - 1)
      var bins = 1
      i = 1
      while (i < nRows) {
        // a new value after i rows: close the bin here when every value has
        // its own, or once the bin holds its share of the rows
        if (v(i) != v(i - 1) && (distinct <= MaxBins || i.toLong * MaxBins >= bins.toLong * nRows)) {
          val (a, b) = (v(i - 1), v(i))
          val mid = (a + b) / 2.0
          cuts(bins - 1) = if (a <= mid && mid < b) mid else a
          bins += 1
        }
        i += 1
      }
      java.util.Arrays.copyOf(cuts, bins - 1)
    }
  }

  /** The trees' importances summed feature by feature, tree by tree, then
    * normalized to sum to 1 (left as is when all zero): the importances of
    * every tree ensemble here.
    */
  def summedImportances(trees: Seq[RegressionTree], nFeatures: Int): Array[Double] = {
    val acc = new Array[Double](nFeatures)
    trees.foreach { t =>
      val im = t.importances
      var j = 0
      while (j < acc.length) { acc(j) += im(j); j += 1 }
    }
    val s = acc.sum
    if (s <= 0) acc else acc.map(_ / s)
  }
}
