package repro.core

import scala.collection.immutable.BitSet

/** A normalized performance measure (Section 2): minimized, range (0,1],
  * with optional user bounds [lower, upper]. `lower` also anchors the
  * log-grid of Equation (1).
  */
final case class Measure(name: String, lower: Double = 1e-3, upper: Double = 1.0) {
  require(lower > 0 && lower <= upper, s"measure $name: bad range [$lower,$upper]")
}

/** An FST state: the bitmap L of Algorithm 1 — one bit per optional
  * attribute (column kept) and one bit per value cluster of each segment
  * attribute (rows of that cluster kept). The all-ones state is s_U.
  */
final case class State(bits: BitSet, width: Int) {
  def apply(i: Int): Boolean = bits(i)
  def clear(i: Int): State = copy(bits = bits - i)
  def set(i: Int): State = copy(bits = bits + i)

  /** Bitmap as a 0/1 vector — surrogate features and DivMODis' cosine term. */
  def toVector: Array[Double] = {
    val v = new Array[Double](width)
    var i = 0
    while (i < width) { if (bits(i)) v(i) = 1.0; i += 1 }
    v
  }

  override def toString: String =
    (0 until width).map(i => if (bits(i)) '1' else '0').mkString("L[", "", "]")
}

object State {
  def full(width: Int): State = State(BitSet(0 until width: _*), width)
  def empty(width: Int): State = State(BitSet.empty, width)
}

/** Index layout of the bitmap: attribute bits first, then each segment
  * attribute's k cluster bits, consecutive, in segment order. Each segment
  * attribute is declared once, with its cluster count k.
  */
final case class BitLayout(attrs: Vector[String], segments: Vector[(String, Int)]) {
  /** The segment attributes, in layout order. */
  val segAttrs: Vector[String] = segments.map(_._1)

  /** Each segment's cluster bits, in [[segAttrs]] order: cluster c of segment i is bit `segBits(i)(c)`. */
  val segBits: Vector[Range] =
    segments.scanLeft(attrs.size until attrs.size)((r, s) => r.end until r.end + s._2).tail
  val width: Int = segBits.lastOption.fold(attrs.size)(_.end)
  private val attrIdxMap = attrs.zipWithIndex.toMap
  private val segIdx = segAttrs.zipWithIndex.toMap

  def attrIdx(a: String): Int = attrIdxMap(a)

  /** Bit of cluster `c` of `seg`; throws for an unknown segment or a cluster outside [0, k). */
  def clusterIdx(seg: String, c: Int): Int = segBits(segIdx(seg))(c)

  /** Attributes kept by a state. */
  def attrsOf(s: State): Vector[String] = attrs.zipWithIndex.collect { case (a, i) if s(i) => a }

  /** Unmasked cluster ids of one segment attribute. */
  def clustersOf(s: State, seg: String): Set[Int] = {
    val bits = segBits(segIdx(seg))
    bits.filter(s(_)).map(_ - bits.start).toSet
  }
}

/** Result of exactly evaluating a state's dataset: the raw metric map (what
  * the paper's tables report; a tabular task reports the Fisher score and
  * MI only when its measures include one of them), the normalized
  * minimized vector (what the search optimizes), and the output size.
  */
final case class EvalResult(raw: Map[String, Double], norm: Array[Double], rows: Int, cols: Int)

/** Output of a MODis run: the ε-skyline entries, plus counters. */
final case class ModisResult(
    skyline: Vector[(State, Array[Double])],
    valuated: Int,
    explored: Int,
    pruned: Int = 0,
) {
  /** Entry with the best (smallest) value of measure index `i`. */
  def bestBy(i: Int): Option[(State, Array[Double])] =
    if (skyline.isEmpty) None else Some(skyline.minBy(_._2(i)))
}

/** Configuration shared by all MODis algorithms (Section 5). */
final case class ModisConfig(
    n: Int = 120,
    eps: Double = 0.1,
    maxl: Int = 6,
    /** diversification size k (DivMODis) */
    k: Int = 8,
    /** Spearman threshold θ of the correlation graph G_C */
    theta: Double = 0.8,
    /** exact valuations used to bootstrap the MO-GBM estimator */
    bootstrap: Int = 25,
    seed: Long = 7,
)
