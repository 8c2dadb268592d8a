package repro.bench

import repro.SparkSpec
import repro.core.Runner
import repro.jobs.{Table5Job, TableConfig}

/** Reproduces Table 5: MODis methods on T5 (LightGCN link recommendation).
  * Shape expectations: every MODis variant improves P@5/P@10/NDCG over the
  * Original (full noisy graph), with reduced edge counts.
  */
class Table5Bench extends SparkSpec {

  private val sf = sys.env.getOrElse("BENCH_SF", "0.1").toDouble
  private val cfg = TableConfig.Graph

  private lazy val reports = Runner.graphComparison(sf, cfg)

  test("Table 5: print and sanity") {
    println(Runner.formatTable("Table 5 / T5: LightGCN recommendation",
      Table5Job.metrics, reports))
    assert(reports.map(_.method) ==
      Vector("Original", "ApxMODis", "NOBiMODis", "BiMODis", "DivMODis"))
  }

  test("Table 5: all six ranking metrics are reported") {
    reports.foreach { r =>
      Seq("pc5", "pc10", "rc5", "rc10", "nc5", "nc10").foreach(k => assert(r.raw.contains(k)))
    }
  }

  test("Table 5: best MODis P@5 is at least the Original's") {
    val orig = reports.head.raw("pc5")
    val best = reports.tail.map(_.raw("pc5")).max
    assert(best >= orig - 0.02, s"modis=$best original=$orig")
  }

  test("Table 5: MODis outputs use no more edges than the full graph") {
    reports.tail.foreach(r => assert(r.rows <= reports.head.rows))
  }
}
