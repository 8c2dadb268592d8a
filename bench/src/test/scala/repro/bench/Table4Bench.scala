package repro.bench

import repro.SparkSpec
import repro.core.Runner
import repro.jobs.{Table4Job, TableConfig}

/** Reproduces Table 4: the multi-objective comparison on T2 (House, RF) and
  * T4 (Mental, GBM). Shape expectations from the paper:
  *   - MODis variants beat Original and the baselines on F1/Acc;
  *   - SkSFM is cheapest to train but least accurate;
  *   - augmentation baselines (METAM/Starmie) pay training time for accuracy.
  */
class Table4Bench extends SparkSpec {

  private val sf = sys.env.getOrElse("BENCH_SF", "0.1").toDouble
  private val cfg = TableConfig.Tabular

  private lazy val house = Runner.tabularComparison(spark, "house", sf, cfg)
  private lazy val mental = Runner.tabularComparison(spark, "mental", sf, cfg)

  test("Table 4 / T2 House: print and sanity") {
    println(Runner.formatTable("Table 4 / T2: House (RF classification)",
      Table4Job.houseMetrics, house))
    assert(house.map(_.method) == Vector("Original", "METAM", "METAM-MO", "Starmie",
      "SkSFM", "H2O", "ApxMODis", "NOBiMODis", "BiMODis", "DivMODis"))
  }

  test("Table 4 / T2: best MODis F1 beats Original") {
    val orig = house.head.raw("f1")
    val bestModis = house.drop(6).map(_.raw("f1")).max
    assert(bestModis >= orig, s"modis=$bestModis original=$orig")
  }

  test("Table 4 / T2: best MODis F1 at least matches every baseline") {
    val bestModis = house.drop(6).map(_.raw("f1")).max
    val bestBaseline = house.slice(1, 6).map(_.raw("f1")).max
    assert(bestModis >= bestBaseline - 0.02, s"modis=$bestModis baseline=$bestBaseline")
  }

  test("Table 4 / T4 Mental: print and sanity") {
    println(Runner.formatTable("Table 4 / T4: Mental (GBM classification)",
      Table4Job.mentalMetrics, mental))
    assert(mental.size == 10)
    mental.foreach(r => assert(r.raw("acc") > 0.4, s"${r.method} acc=${r.raw("acc")}"))
  }

  test("Table 4 / T4: best MODis accuracy beats Original") {
    val orig = mental.head.raw("acc")
    val bestModis = mental.drop(6).map(_.raw("acc")).max
    assert(bestModis >= orig, s"modis=$bestModis original=$orig")
  }

  test("Table 4: feature selection reduces columns (SkSFM narrowest or near)") {
    val sk = house.find(_.method == "SkSFM").get
    assert(sk.cols < house.head.cols)
  }

  test("Table 4: MODis outputs are smaller than the universal table") {
    house.drop(6).foreach { r =>
      assert(r.rows <= house.head.rows && r.cols <= house.head.cols,
        s"${r.method}: (${r.rows},${r.cols}) vs original (${house.head.rows},${house.head.cols})")
    }
  }
}
