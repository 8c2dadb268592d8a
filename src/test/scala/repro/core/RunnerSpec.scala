package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RunnerSpec extends AnyFunSuite {

  /** [[SyntheticSpace]] whose states are usable only on their first
    * evaluation: the search sees a skyline, the post-search exact
    * evaluation finds every entry unusable.
    */
  private final class UsableOnceSpace extends StateSpace {
    private val inner = new SyntheticSpace()
    private val seen = scala.collection.mutable.Set.empty[State]
    override def layout: BitLayout = inner.layout
    override def measures: Vector[Measure] = inner.measures
    override lazy val backStart: State = inner.backStart
    override def rowCountEstimate(s: State): Long = inner.rowCountEstimate(s)
    override def evaluate(s: State): Option[EvalResult] =
      if (seen.add(s)) inner.evaluate(s) else None
  }

  test("modisReports names the method when no skyline entry is usable") {
    val e = intercept[IllegalStateException] {
      // exact-only valuation: every skyline entry was evaluated in the search
      Runner.modisReports(() => new UsableOnceSpace,
        ModisConfig(n = 20, eps = 0.2, bootstrap = Int.MaxValue), primaryIdx = 0)
    }
    assert(e.getMessage.contains("ApxMODis"), e.getMessage)
  }
}
