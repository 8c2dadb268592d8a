package repro.core

import repro.util.Stats
import scala.collection.mutable
import scala.util.Random

/** Shared level-wise search engine behind the four MODis algorithms
  * (Section 5). The variant fixes its three behaviours: both frontiers for
  * every variant but ApxMODis, correlation-based pruning for BiMODis, and
  * per-level diversification for DivMODis.
  */
private[core] final class ModisEngine(
    space: StateSpace,
    valuator: Valuator,
    cfg: ModisConfig,
    variant: Modis,
) {
  private val bidirectional = variant != ApxMODis
  private val pruning = variant == BiMODis
  private val diversifying = variant == DivMODis

  private val grid = new SkylineGrid(space.measures, cfg.eps)
  private val rng = new Random(cfg.seed)
  private var prunedCount = 0
  private var explored = 0
  private var seqCounter = 0L

  import ModisEngine.{Entry, PruneBasis}
  private var basis = PruneBasis(-1, Array.empty, Array.empty, correlated = false)
  private implicit val entryOrd: Ordering[Entry] =
    Ordering.by[Entry, (Double, Long)](e => (e.priority, e.seq)).reverse

  /** Valuate `s`; when usable, offer it to the grid and queue it at `lvl`. */
  private def admit(q: mutable.PriorityQueue[Entry], s: State, lvl: Int): Unit =
    valuator.valuate(s).foreach { p =>
      grid.offer(s, p)
      q.enqueue(Entry(s, lvl, p.sum, seqCounter))
      seqCounter += 1
    }

  private val visitedF = mutable.Set.empty[State]
  private val visitedB = mutable.Set.empty[State]
  // "a path is formed": some state was reached from both frontiers
  private var met = false

  def run(): ModisResult = {
    val qf = mutable.PriorityQueue.empty[Entry]
    val qb = mutable.PriorityQueue.empty[Entry]

    val sU = space.full
    visitedF += sU
    admit(qf, sU, 0)

    if (bidirectional) {
      val sb = space.backStart
      visitedB += sb
      met = visitedF.contains(sb)
      admit(qb, sb, 0)
    }

    var level = 0
    var pathFormed = false
    while ((qf.nonEmpty || qb.nonEmpty) && valuator.count < cfg.n && !pathFormed) {
      if (qf.nonEmpty) {
        val lvl = step(qf, forward = true)
        if (diversifying && lvl > level) { level = lvl; trimDiverse() }
      }
      if (bidirectional && qb.nonEmpty && valuator.count < cfg.n)
        step(qb, forward = false)
      pathFormed = met // checked once per round, after both frontiers stepped
    }
    if (diversifying) trimDiverse()
    ModisResult(grid.entries, valuator.count, explored, prunedCount)
  }

  /** Expand one frontier state; returns the level of the dequeued state. */
  private def step(q: mutable.PriorityQueue[Entry], forward: Boolean): Int = {
    val Entry(s, lvl, _, _) = q.dequeue()
    if (lvl >= cfg.maxl) return lvl
    val (visited, other) = if (forward) (visitedF, visitedB) else (visitedB, visitedF)
    val children = if (forward) space.neighborsReduct(s) else space.neighborsAugment(s)
    val it = children.iterator
    while (it.hasNext && valuator.count < cfg.n) {
      val c = it.next()
      if (!visited.contains(c)) {
        visited += c
        if (other.contains(c)) met = true
        explored += 1
        if (pruning && canPrune(c)) prunedCount += 1
        else admit(q, c, lvl + 1) // an unusable dataset is a dead end
      }
    }
    lvl
  }

  /** Correlation-based pruning (Section 5.3 / Lemma 4): parameterize every
    * measure of the candidate from its |D| proxy via the Spearman
    * correlation graph over the records T; prune when a valuated skyline
    * state parameterized-ε-dominates the candidate's optimistic bounds.
    */
  private def canPrune(s: State): Boolean = {
    if (grid.size == 0) return false
    val b = pruneBasis()
    if (b.sizes.length < 8 || !b.correlated) return false
    val sizes = b.sizes
    val mySize = space.rowCountEstimate(s).toDouble
    // optimistic bounds come from the 3 records nearest in size (Example 6)
    val near = sizes.indices.sortBy(j => math.abs(sizes(j) - mySize)).take(3)
    val lows = b.perf.map(ps => near.map(ps).min)
    grid.entries.exists { case (_, e) =>
      lows.indices.forall(j => e(j) <= (1 + cfg.eps) * lows(j))
    }
  }

  /** [[canPrune]]'s view of T, rebuilt only when T can have grown: T holds
    * every usable valuated state with its fixed vector, so it changes only
    * when the valuation count does.
    */
  private def pruneBasis(): PruneBasis = {
    if (basis.valuated != valuator.count) {
      val recs = valuator.records
      val sizes = recs.map(r => space.rowCountEstimate(r._1).toDouble).toArray
      val perf = Array.tabulate(space.measures.length)(i => recs.map(_._2(i)).toArray)
      basis = PruneBasis(valuator.count, sizes, perf,
        perf.forall(ps => math.abs(Stats.spearman(sizes, ps)) >= cfg.theta))
    }
    basis
  }

  /** DivMODis' per-level greedy swap (Algorithm 3): keep at most k skyline
    * entries maximizing the submodular diversification score div (Eq. 2).
    */
  private def trimDiverse(): Unit = {
    val pool = grid.entries
    if (pool.size <= cfg.k) return
    val kept = ModisEngine.diversify(pool, cfg.k, alpha = 0.5, rng)
    grid.retain(kept.map(_._1).toSet)
  }
}

private[core] object ModisEngine {

  /** Frontier entry: the "path length" framing of Section 5.1 — states with
    * the smallest aggregate estimated performance are expanded first
    * ("extend shortest paths by prioritizing the valuation of datasets
    * towards user-defined upper bounds"). Ties break FIFO for determinism.
    */
  private final case class Entry(s: State, lvl: Int, priority: Double, seq: Long)

  /** The records T as `canPrune` reads them, taken at `valuated` valuations:
    * each record's size, each measure's values over the records, and
    * whether every measure correlates with size (|Spearman ρ| ≥ θ).
    */
  private final case class PruneBasis(valuated: Int, sizes: Array[Double],
                                      perf: Array[Array[Double]], correlated: Boolean)

  /** Pairwise distance of Eq. 2: α·(1−cos(L_i,L_j))/2 + (1−α)·euc/euc_m. */
  def dis(a: (State, Array[Double]), b: (State, Array[Double]),
          alpha: Double, eucMax: Double): Double =
    alpha * (1 - Stats.cosine(a._1.toVector, b._1.toVector)) / 2.0 +
      (1 - alpha) * Stats.euclid(a._2, b._2) / eucMax

  def div(set: Seq[(State, Array[Double])], alpha: Double, eucMax: Double): Double =
    sumPairs(set.size)((i, j) => dis(set(i), set(j), alpha, eucMax))

  // sum of d(i, j) over the pairs i < j of 0 until n, in div's order
  private def sumPairs(n: Int)(d: (Int, Int) => Double): Double = {
    var s = 0.0
    for (i <- 0 until n; j <- i + 1 until n) s += d(i, j)
    s
  }

  /** Greedy selection-and-replace k-subset maximizing div (¼-approximation
    * per Lemma 5), run on indices into `pool`.
    */
  def diversify(pool: Vector[(State, Array[Double])], k: Int, alpha: Double,
                rng: Random): Vector[(State, Array[Double])] = {
    if (pool.size <= k) return pool
    val p = pool.size
    var eucMax = 1e-9
    for (i <- 0 until p; j <- i + 1 until p) eucMax = math.max(eucMax, Stats.euclid(pool(i)._2, pool(j)._2))
    // each pair's dis once (it is symmetric bit for bit); div sums them in set order
    val d = Array.ofDim[Double](p, p)
    for (i <- 0 until p; j <- i + 1 until p) { d(i)(j) = dis(pool(i), pool(j), alpha, eucMax); d(j)(i) = d(i)(j) }
    def divOf(c: IndexedSeq[Int]): Double = sumPairs(c.size)((i, j) => d(c(i))(c(j)))
    var cur = rng.shuffle(pool.indices.toVector).take(k)
    var score = divOf(cur)
    var improved = true
    for (_ <- 0 until 40 if improved) {
      // evaluate all swaps against the *current* set, apply the first best one —
      // mutating cur mid-scan would let stale `out` positions grow the set
      var (top, next) = (score + 1e-12, cur)
      for (out <- cur.indices; in <- pool.indices if !cur.contains(in)) {
        val c = cur.patch(out, Nil, 1) :+ in
        val s = divOf(c)
        if (s > top) { top = s; next = c }
      }
      improved = next ne cur
      if (improved) { cur = next; score = top }
    }
    cur.map(pool)
  }
}

/** A MODis algorithm of Section 5: one configuration of [[ModisEngine]]. */
sealed abstract class Modis(val name: String) {
  def run(space: StateSpace, valuator: Valuator, cfg: ModisConfig): ModisResult =
    new ModisEngine(space, valuator, cfg, this).run()
}

object Modis {
  /** The paper's four algorithms, in the order the Tables report them. */
  val all: Vector[Modis] = Vector(ApxMODis, NOBiMODis, BiMODis, DivMODis)
}

/** Algorithm 1 — "reduce-from-universal" (N,ε)-approximation. */
object ApxMODis extends Modis("ApxMODis")

/** Algorithm 2 without correlation-based pruning (the paper's NOBiMODis). */
object NOBiMODis extends Modis("NOBiMODis")

/** Algorithm 2 — bi-directional search with correlation-based pruning. */
object BiMODis extends Modis("BiMODis")

/** Algorithm 3 — diversified skyline generation over the bi-directional
  * search.
  */
object DivMODis extends Modis("DivMODis")
