package repro.core

/** The FST exploration interface (Section 3): bitmap states, one-flip
  * transitions (OpGen), exact valuation, and the cheap driver-side size
  * proxy used by the correlation graph. Implementations: [[TabularSpace]]
  * (T1–T4), `repro.graph.GraphSpace` (T5), and the closed-form synthetic
  * space used in unit tests.
  */
trait StateSpace {
  def layout: BitLayout

  /** s_U: the universal (all-ones) start state. */
  def full: State = State.full(layout.width)

  /** s_b: the backward start state (procedure BackSt). */
  def backStart: State

  /** Procedure BackSt: `attrs` plus each segment attribute's largest
    * cluster (the first with the most rows when it is the only one of its
    * segment unmasked), then the remaining cluster bits in layout order
    * until the state evaluates: the paper's minimal class-covering sample.
    */
  protected def backStartFrom(attrs: Seq[String]): State = {
    var s = attrs.foldLeft(State.empty(layout.width))((t, a) => t.set(layout.attrIdx(a)))
    for (bits <- layout.segBits) {
      val without = bits.foldLeft(full)(_.clear(_))
      s = s.set(bits.maxBy(b => rowCountEstimate(without.set(b))))
    }
    val rest = layout.segBits.flatten.filterNot(s(_)).iterator
    while (evaluate(s).isEmpty && rest.hasNext) s = s.set(rest.next())
    s
  }

  /** Reduct transitions: every applicable one-flip 1→0 child (OpGen). */
  def neighborsReduct(s: State): Seq[State] =
    (0 until layout.width).filter(s(_)).map(s.clear).filter(admissible)

  /** Augment transitions: every applicable one-flip 0→1 child. */
  def neighborsAugment(s: State): Seq[State] =
    (0 until layout.width).filterNot(s(_)).map(s.set).filter(admissible)

  /** Structural admissibility (cheap, no valuation): at least one feature
    * column and at least one unmasked cluster per segment attribute.
    */
  def admissible(s: State): Boolean =
    layout.attrsOf(s).nonEmpty && layout.segBits.forall(_.exists(s(_)))

  /** Exact valuation: materialize and train the task model. None when the
    * dataset is unusable (too small / single-class).
    */
  def evaluate(s: State): Option[EvalResult]

  // The one cache of exact results. A space serves one search (Runner builds
  // a fresh one per method), so it is not shared across methods: it keeps
  // BackSt's probes, the search's exact valuations and the post-search
  // `exact` call from fitting a state twice. Fits are deterministic, so
  // caching is sound.
  private val exactResults = scala.collection.mutable.HashMap.empty[State, Option[EvalResult]]

  /** `eval`, the exact valuation of `s`, run at most once per state. */
  protected final def cached(s: State)(eval: => Option[EvalResult]): Option[EvalResult] =
    exactResults.getOrElseUpdate(s, eval)

  /** Cheap row-count proxy (no Spark job) — correlation pruning's |D|. */
  def rowCountEstimate(s: State): Long

  /** Fewest rows (edges, in the graph space) a state needs: below it both
    * [[evaluate]] and the surrogate give None.
    */
  def minRows: Int = TabularTask.MinRows

  /** The measure set P (normalized, minimized). */
  def measures: Vector[Measure]
}

/** T1–T4 state space over a universal table. */
final class TabularSpace(val universal: UniversalTable, val task: TabularTask) extends StateSpace {
  override def layout: BitLayout = universal.layout
  override def measures: Vector[Measure] = task.measures

  /** BackSt from the base table's own attributes. */
  override lazy val backStart: State = backStartFrom(task.lake.attrsOf(task.lake.base))

  // No Spark job per state: the task reads the state's rows in place in D_U's driver copy.
  override def evaluate(s: State): Option[EvalResult] = cached(s) {
    task.evaluate(universal.project(layout.attrsOf(s)), universal.rowIndices(s))
  }

  override def rowCountEstimate(s: State): Long = universal.rowCount(s)
}
