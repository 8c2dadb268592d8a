package repro.ml

import scala.util.Random

/** CART regression tree with variance-reduction splits — the shared weak
  * learner behind the GBM, random-forest, and MO-GBM substrates (S8 in
  * DESIGN.md). Deterministic given the caller-provided RNG.
  *
  * Rows are sorted once per feature for a whole ensemble fit
  * ([[RegressionTree.presort]], SLIQ's presorting: Mehta, Agrawal &
  * Rissanen, EDBT 1996); each split partitions every feature's sorted rows
  * stably, so each node sees its rows in the presort's order.
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
    rootOpt = Some(new Grower(x, y, order, rng).grow(0, order.rows.length, 0))
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
  private final class Grower(x: Array[Array[Double]], y: Array[Double], order: Presorted,
                             rng: Random) {
    private val rows = order.rows.clone()
    private val sorted = order.byFeature.map(_.clone())
    private val goLeft = new Array[Boolean](x.length)
    private val buf = new Array[Int](rows.length)

    /** Stable in-place partition of `a(lo until hi)` by `goLeft`; returns
      * the end of the left part.
      */
    private def partition(a: Array[Int], lo: Int, hi: Int): Int = {
      var l = lo
      var r = 0
      var i = lo
      while (i < hi) {
        val j = a(i)
        if (goLeft(j)) { a(l) = j; l += 1 } else { buf(r) = j; r += 1 }
        i += 1
      }
      System.arraycopy(buf, 0, a, l, r)
      l
    }

    def grow(lo: Int, hi: Int, depth: Int): Node = {
      val n = hi - lo
      var sum = 0.0
      var i = lo
      while (i < hi) { sum += y(rows(i)); i += 1 }
      val meanHere = sum / n
      if (depth >= maxDepth || n < 2 * minLeaf) return Leaf(meanHere)

      var sse = 0.0
      i = lo
      while (i < hi) { val d = y(rows(i)) - meanHere; sse += d * d; i += 1 }
      if (sse <= 1e-12) return Leaf(meanHere)

      val nFeat = x(0).length
      val cand: Array[Int] =
        if (featuresPerSplit <= 0 || featuresPerSplit >= nFeat) Array.range(0, nFeat)
        else rng.shuffle((0 until nFeat).toList).take(featuresPerSplit).toArray

      var bestGain = 0.0
      var bestFeat = -1
      var bestThr = 0.0
      for (f <- cand) {
        val s = sorted(f)
        // prefix sums of y over the sorted order
        var leftSum = 0.0
        var k = 0
        while (k < n - 1) {
          val j = s(lo + k)
          leftSum += y(j)
          val vHere = x(j)(f)
          val vNext = x(s(lo + k + 1))(f)
          if (vHere != vNext && k + 1 >= minLeaf && n - k - 1 >= minLeaf) {
            val nl = k + 1; val nr = n - nl
            val rightSum = sum - leftSum
            // variance-reduction gain: SSE decrease from splitting at this point
            val gain = leftSum * leftSum / nl + rightSum * rightSum / nr - sum * sum / n
            if (gain > bestGain + 1e-12) {
              bestGain = gain; bestFeat = f; bestThr = (vHere + vNext) / 2.0
            }
          }
          k += 1
        }
      }
      if (bestFeat < 0) return Leaf(meanHere)
      importanceAcc(bestFeat) += bestGain
      i = lo
      while (i < hi) { val j = rows(i); goLeft(j) = x(j)(bestFeat) <= bestThr; i += 1 }
      val mid = partition(rows, lo, hi)
      // every feature, drawn here or not: a child may draw any of them
      sorted.foreach(partition(_, lo, hi))
      Split(bestFeat, bestThr, grow(lo, mid, depth + 1), grow(mid, hi, depth + 1))
    }
  }
}

object RegressionTree {

  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Training rows in their natural order (ascending index, or bootstrap
    * draw order), and for each feature the same rows in [[presort]]'s order.
    */
  final class Presorted private[RegressionTree] (
      private[ml] val rows: Array[Int], private[ml] val byFeature: Array[Array[Int]]) {

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
      })
    }
  }

  /** Every row of `x`, sorted once per feature by (float key of the value,
    * row index), a total order packed into longs and primitive-sorted: the
    * order the recorded trees (MLGoldenSpec) were grown in. The key is not
    * the values' order. It puts every value whose sign bit is clear (0.0 and
    * up) before every value whose sign bit is set (-0.0 and below),
    * and orders distinct doubles that round to one float by row index, so
    * the prefix a split scores can differ from the partition its threshold
    * makes.
    */
  def presort(x: Array[Array[Double]]): Presorted = {
    val n = x.length
    val nFeat = if (n == 0) 0 else x(0).length
    new Presorted(Array.range(0, n), Array.tabulate(nFeat) { f =>
      val packed = new Array[Long](n)
      var i = 0
      while (i < n) {
        val bitsRaw = java.lang.Float.floatToIntBits(x(i)(f).toFloat)
        val bits = if (bitsRaw < 0) ~bitsRaw else bitsRaw ^ 0x80000000
        packed(i) = (bits.toLong << 32) | (i.toLong & 0xffffffffL)
        i += 1
      }
      java.util.Arrays.sort(packed)
      packed.map(_.toInt)
    })
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
