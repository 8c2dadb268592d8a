package repro.ml

import java.util.stream.IntStream
import scala.util.Random

/** CART regression tree with variance-reduction splits — the shared weak
  * learner behind the GBM, random-forest, and MO-GBM substrates (S8 in
  * DESIGN.md). Deterministic given the caller-provided RNG.
  *
  * Rows are sorted once per feature for a whole ensemble fit
  * ([[RegressionTree.presort]], SLIQ's presorting: Mehta, Agrawal &
  * Rissanen, EDBT 1996); each split partitions every feature's sorted rows
  * stably, so each node sees its rows in the presort's order. A large node
  * scans its candidate features and partitions its features on the JDK
  * common pool, one feature per task (SPRINT's parallel attribute lists:
  * Shafer, Agrawal & Mehta, VLDB 1996), and still picks the split the
  * sequential scan picks.
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
    fit(x, y, rng, presort(x))

  /** Fit on the rows of `order`, a presort of `x` or a sample of one. */
  def fit(x: Array[Array[Double]], y: Array[Double], rng: Random, order: Presorted): this.type = {
    require(x.length == y.length && x.nonEmpty, "tree: empty or mismatched input")
    importanceAcc = new Array[Double](x(0).length)
    rootOpt = Some(new Grower(y, order, rng).grow(0, order.rows.length))
    this
  }

  def predict(xi: Array[Double]): Double = {
    var n = root
    while (true) {
      n match {
        case Leaf(v)                  => return v
        case Split(f, t, l, r)        => n = if (xi(f) <= t) l else r
      }
    }
    0.0 // unreachable
  }

  /** One fit's working copy of `order`: a node is a range `lo until hi` of
    * `rows` (the sample's natural order, which sums run in) and of each
    * feature's sorted rows, partitioned in place at every split.
    */
  private final class Grower(y: Array[Double], order: Presorted, rng: Random) {
    private val rows = order.rows.clone()
    private val sorted = order.byFeature.map(_.clone())
    private val column = order.columns
    private val goLeft = new Array[Boolean](y.length)
    // one per feature, so that features partition at once; the last is rows'
    private val bufs = Array.fill(sorted.length + 1)(new Array[Int](rows.length))
    private val nFeat = sorted.length
    private val allFeatures = featuresPerSplit <= 0 || featuresPerSplit >= nFeat

    /** Stable in-place partition of `a(lo until hi)` by `goLeft`, through
      * `buf`; returns the end of the left part.
      */
    private def partition(a: Array[Int], lo: Int, hi: Int, buf: Array[Int]): Int = {
      var l = lo
      var r = 0
      var i = lo
      while (i < hi) {
        val j = a(i)
        // both writes, then one count moves: no branch on a random bit
        val left = if (goLeft(j)) 1 else 0
        a(l) = j; buf(r) = j
        l += left; r += 1 - left
        i += 1
      }
      System.arraycopy(buf, 0, a, l, r)
      l
    }

    /** The SSE decrease from splitting `n` rows that sum to `sum` into the
      * first `nl`, which sum to `leftSum`, and the rest.
      */
    private def gain(leftSum: Double, nl: Int, n: Int, sum: Double): Double = {
      val rightSum = sum - leftSum
      leftSum * leftSum / nl + rightSum * rightSum / (n - nl) - sum * sum / n
    }

    // each feature's last record in its last scan, as an offset k into the
    // node's sorted rows: the threshold lies between the values at k and k + 1
    private val recordAt = new Array[Int](nFeat)

    /** The split scan of feature `f` in `lo until hi`, the one loop over
      * split points. Starting from a record of `from`, each valid split
      * point whose gain is above the record + 1e-12 becomes the record, kept
      * in `recordAt(f)` (-1 when none does). Returns the last record:
      * `from` when no split point beat it.
      */
    private def scan(f: Int, lo: Int, hi: Int, sum: Double, from: Double): Double = {
      val s = sorted(f)
      val col = column(f)
      val n = hi - lo
      var record = from
      var at = -1
      // prefix sums of y over the sorted order
      var leftSum = 0.0
      var vHere = col(s(lo))
      var k = 0
      while (k < n - 1) {
        leftSum += y(s(lo + k))
        val vNext = col(s(lo + k + 1))
        if (vHere != vNext && k + 1 >= minLeaf && n - k - 1 >= minLeaf) {
          val g = gain(leftSum, k + 1, n, sum)
          if (g > record + 1e-12) { record = g; at = k }
        }
        vHere = vNext
        k += 1
      }
      recordAt(f) = at
      record
    }

    /** Sum of y over `rows(lo until hi)`, in that order. */
    private def sumOf(lo: Int, hi: Int): Double = {
      var sum = 0.0
      var i = lo
      while (i < hi) { sum += y(rows(i)); i += 1 }
      sum
    }

    /** Whether a node of `n` rows at `depth` would find every feature's
      * record from 0 on several threads: its parent finds them instead, in
      * the tasks that partition each feature.
      */
    private def foundByParent(n: Int, depth: Int): Boolean =
      allFeatures && depth < maxDepth && n >= 2 * minLeaf && isLarge(n, nFeat)

    def grow(lo: Int, hi: Int): Node = grow(lo, hi, 0, sumOf(lo, hi), null)

    /** The node of `rows(lo until hi)`, whose y sums to `sum`. `found`, when
      * not null, holds each feature's record from 0 in the node.
      */
    private def grow(lo: Int, hi: Int, depth: Int, sum: Double, found: Array[Double]): Node = {
      val n = hi - lo
      val meanHere = sum / n
      if (depth >= maxDepth || n < 2 * minLeaf) return Leaf(meanHere)

      var sse = 0.0
      var i = lo
      while (i < hi) { val d = y(rows(i)) - meanHere; sse += d * d; i += 1 }
      if (sse <= 1e-12) return Leaf(meanHere)

      val cand: Array[Int] =
        if (allFeatures) Array.range(0, nFeat)
        else rng.shuffle((0 until nFeat).toList).take(featuresPerSplit).toArray

      // A large node has each candidate's record from 0, found here on all
      // cores or by its parent. Every gain of a feature is at most that
      // record + 1e-12, so the sequential scan skips a feature whose record
      // is not above the best: it could not replace the best there, and the
      // chosen split and its gain are the sequential scan's. A small node
      // scans every candidate.
      val records =
        if (found != null) found
        else if (isLarge(n, cand.length)) {
          val a = new Array[Double](cand.length)
          forEach(n, cand.length)(c => a(c) = scan(cand(c), lo, hi, sum, 0.0))
          a
        } else null
      var best = 0.0
      var feat = -1
      var c = 0
      while (c < cand.length) {
        if (records == null || records(c) > best) {
          val r = scan(cand(c), lo, hi, sum, best)
          if (r > best) { best = r; feat = cand(c) }
        }
        c += 1
      }
      if (feat < 0) return Leaf(meanHere)
      val col = column(feat)
      val at = lo + recordAt(feat)
      val thr = (col(sorted(feat)(at)) + col(sorted(feat)(at + 1))) / 2.0
      importanceAcc(feat) += best
      i = lo
      while (i < hi) { val j = rows(i); goLeft(j) = col(j) <= thr; i += 1 }
      val mid = partition(rows, lo, hi, bufs(nFeat))
      val (sumL, sumR) = (sumOf(lo, mid), sumOf(mid, hi))
      val foundL = if (foundByParent(mid - lo, depth + 1)) new Array[Double](nFeat) else null
      val foundR = if (foundByParent(hi - mid, depth + 1)) new Array[Double](nFeat) else null
      // every feature, drawn here or not: a child may draw any of them; a
      // leaf reads only `rows`, so children at maxDepth need none
      if (depth + 1 < maxDepth) forEach(n, nFeat) { f =>
        partition(sorted(f), lo, hi, bufs(f))
        if (foundL != null) foundL(f) = scan(f, lo, mid, sumL, 0.0)
        if (foundR != null) foundR(f) = scan(f, mid, hi, sumR, 0.0)
      }
      Split(feat, thr, grow(lo, mid, depth + 1, sumL, foundL),
        grow(mid, hi, depth + 1, sumR, foundR))
    }
  }
}

object RegressionTree {

  /** Rows × features of a node's loop below which it runs on one thread:
    * smaller loops cost more to fork and join than they save.
    */
  private[ml] val ParallelFloor = 8192

  private def isLarge(n: Int, features: Int): Boolean = n.toLong * features >= ParallelFloor

  /** `body(i)` for every `i` below `count`: on the JDK common pool when
    * `n` rows × `count` reach [[ParallelFloor]], else in order.
    */
  private def forEach(n: Int, count: Int)(body: Int => Unit): Unit =
    if (isLarge(n, count)) IntStream.range(0, count).parallel().forEach(i => body(i))
    else { var i = 0; while (i < count) { body(i); i += 1 } }

  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Training rows in their natural order (ascending index, or bootstrap
    * draw order), for each feature the same rows in [[presort]]'s order, and
    * each feature's values by row index (`x`'s columns, which a split scan
    * reads in sorted order).
    */
  final class Presorted private[RegressionTree] (
      private[ml] val rows: Array[Int], private[ml] val byFeature: Array[Array[Int]],
      private[ml] val columns: Array[Array[Double]]) {

    /** The presort of the bootstrap or subset `draws` of the rows of this
      * presort of all rows: each feature's order with row `j` repeated as
      * often as `draws` holds it, which is how a sort of `draws` orders it.
      */
    def sample(draws: Array[Int]): Presorted = {
      val count = new Array[Int](rows.length)
      draws.foreach(j => count(j) += 1)
      new Presorted(draws, byFeature.map { all =>
        val out = new Array[Int](draws.length)
        var k = 0
        all.foreach { j =>
          var c = count(j)
          while (c > 0) { out(k) = j; k += 1; c -= 1 }
        }
        out
      }, columns)
    }
  }

  /** Every row of `x`, sorted once per feature by (float key of the value,
    * row index), a total order packed into longs and primitive-sorted: the
    * order the recorded trees (MLGoldenSpec) were grown in. The key is not
    * the values' order. It puts every value whose sign bit is clear (0.0 and
    * up) before every value whose sign bit is set (-0.0 and below),
    * and orders distinct doubles that round to one float by row index, so
    * the prefix a split scores can differ from the partition its threshold
    * makes. Large inputs sort their features on the common pool.
    */
  def presort(x: Array[Array[Double]]): Presorted = {
    val n = x.length
    val nFeat = if (n == 0) 0 else x(0).length
    val byFeature = new Array[Array[Int]](nFeat)
    val columns = Array.ofDim[Double](nFeat, n)
    val sortFeature = (f: Int) => {
      val col = columns(f)
      val packed = new Array[Long](n)
      var i = 0
      while (i < n) {
        col(i) = x(i)(f)
        val bitsRaw = java.lang.Float.floatToIntBits(col(i).toFloat)
        val bits = if (bitsRaw < 0) ~bitsRaw else bitsRaw ^ 0x80000000
        packed(i) = (bits.toLong << 32) | (i.toLong & 0xffffffffL)
        i += 1
      }
      java.util.Arrays.sort(packed)
      byFeature(f) = packed.map(_.toInt)
    }
    forEach(n, nFeat)(sortFeature)
    new Presorted(Array.range(0, n), byFeature, columns)
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
