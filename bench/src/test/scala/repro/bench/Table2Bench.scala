package repro.bench

import repro.SparkSpec
import repro.core.Runner
import repro.jobs.Table2Job
import repro.lake.DataLake

/** Reproduces Table 2 (corpus characteristics) over the synthetic substitute
  * corpora. Paper numbers (for EXPERIMENTS.md diff):
  *   Kaggle   1943 tables, 33573 cols,  7317K rows
  *   OpenData 2457 tables, 71416 cols, 33296K rows
  *   HF        255 tables,  1395 cols, 10207K rows
  */
class Table2Bench extends SparkSpec {

  private val sf = sys.env.getOrElse("BENCH_SF", "0.1").toDouble

  test("Table 2: corpus characteristics") {
    val out = Table2Job.render(spark, sf)
    println(out)
    assert(out.contains("Kaggle-lite") && out.contains("OpenData-lite") && out.contains("HF-lite"))
  }

  test("Table 2: corpora are non-trivial at bench scale") {
    val kaggle = Seq(Runner.lakeByName(spark, "movie", sf), Runner.lakeByName(spark, "mental", sf))
    val (t, c, r) = DataLake.corpusStats(kaggle)
    assert(t >= 8, s"tables=$t")   // 2 lakes x (base + >=3 aux/distractors)
    assert(c > 20, s"cols=$c")
    assert(r > 5000, s"rows=$r")
  }

  test("Table 2: ordering matches the paper (OpenData-lite widest schema per table ratio)") {
    // the paper's OpenData has the most columns; our substitute keeps the
    // house lake the widest
    val house = Runner.lakeByName(spark, "house", sf)
    val movie = Runner.lakeByName(spark, "movie", sf)
    assert(house.featureAttrs.size > movie.featureAttrs.size)
  }
}
