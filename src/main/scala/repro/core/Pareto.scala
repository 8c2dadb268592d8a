package repro.core

/** Dominance machinery (Section 4) and the ε-skyline grid of Equation (1)
  * with the UPareto replacement rule (Algorithm 1).
  */
object Pareto {

  /** Strict Pareto dominance for minimized vectors: a ≼ everywhere and < in
    * at least one coordinate ⇒ a dominates b.
    */
  def dominates(a: Array[Double], b: Array[Double]): Boolean = {
    require(a.length == b.length, "dominates: arity mismatch")
    var strict = false
    var i = 0
    while (i < a.length) {
      if (a(i) > b(i)) return false
      if (a(i) < b(i)) strict = true
      i += 1
    }
    strict
  }

  /** ε-dominance (Section 5.1): a.p ≤ (1+ε)·b.p for all p, and a.p* ≤ b.p*
    * for some decisive p*.
    */
  def epsDominates(a: Array[Double], b: Array[Double], eps: Double): Boolean = {
    var decisive = false
    var i = 0
    while (i < a.length) {
      if (a(i) > (1 + eps) * b(i)) return false
      if (a(i) <= b(i)) decisive = true
      i += 1
    }
    decisive
  }

  /** O(n²) skyline (indices of non-dominated points): the definition, kept
    * as a reference for tests.
    */
  def skyline(points: IndexedSeq[Array[Double]]): Set[Int] =
    points.indices.filter { i =>
      !points.indices.exists(j => j != i && dominates(points(j), points(i)))
    }.toSet

  /** Equation (1): the discretized (|P|−1)-ary grid position of a vector,
    * skipping the decisive measure, the last one.
    */
  def pos(p: Array[Double], measures: Vector[Measure], eps: Double): Vector[Int] = {
    require(p.length == measures.length, "pos: arity mismatch")
    Vector.tabulate(measures.length - 1) { i =>
      math.floor(math.log(math.max(p(i), measures(i).lower) / measures(i).lower) /
        math.log(1 + eps)).toInt
    }
  }
}

/** The ε-skyline container: one representative per grid cell, replaced when
  * a newcomer wins on the decisive measure, the last one (procedure UPareto).
  */
final class SkylineGrid(measures: Vector[Measure], eps: Double) {
  private val decisiveIdx = measures.length - 1
  private val cells = scala.collection.mutable.LinkedHashMap.empty[Vector[Int], (State, Array[Double])]

  /** UPareto: reject if any upper bound is violated; otherwise insert or
    * replace the cell occupant when the newcomer's decisive measure is
    * strictly better. Returns true iff the state entered the skyline.
    */
  def offer(s: State, perf: Array[Double]): Boolean = {
    var i = 0
    while (i < perf.length) {
      if (perf(i) > measures(i).upper) return false
      i += 1
    }
    val key = Pareto.pos(perf, measures, eps)
    cells.get(key) match {
      case None => cells(key) = (s, perf); true
      case Some((_, old)) if perf(decisiveIdx) < old(decisiveIdx) =>
        cells(key) = (s, perf); true
      case _ => false
    }
  }

  def entries: Vector[(State, Array[Double])] = cells.values.toVector
  def size: Int = cells.size

  /** Restrict the grid to the given states (DivMODis' per-level trim). */
  def retain(keep: Set[State]): Unit = {
    val drop = cells.collect { case (k, (s, _)) if !keep.contains(s) => k }
    drop.foreach(cells.remove)
  }
}
