package repro.core

import repro.SparkSpec

class RunnerSpec extends SparkSpec {

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

  private val cfg = ModisConfig(n = 30, eps = 0.2, maxl = 4, bootstrap = 10)

  Seq("house", "avocado").foreach { name =>
    test(s"$name: tabularComparison reports Original, the five baselines and four MODis variants") {
      val reports = Runner.tabularComparison(spark, name, 0.01, cfg)
      assert(reports.map(_.method) == Vector("Original", "METAM", "METAM-MO", "Starmie",
        "SkSFM", "H2O", "ApxMODis", "NOBiMODis", "BiMODis", "DivMODis"))

      // Original is s_U evaluated from the driver copy, apart from the wall-clock train time
      val lake = Runner.lakeByName(spark, name, 0.01)
      val uni = Universal.build(lake)
      val ref = TabularTask.forLake(lake).evaluate(uni.project(uni.layout.attrs)).get
      val original = reports.head
      assert(original.raw - "train" == ref.raw - "train")
      assert((original.rows.toInt, original.cols) == (ref.rows, ref.cols))

      // every baseline keeps all of D_U's rows and a subset of its columns
      reports.slice(1, 6).foreach { r =>
        assert(r.rows == original.rows && r.cols <= original.cols,
          s"${r.method}: (${r.rows},${r.cols}) vs original (${original.rows},${original.cols})")
      }
    }
  }
}
