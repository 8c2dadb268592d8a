package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Runner
import repro.lake.DataLake

/** Table 2 — characteristics of the (synthetic substitute) dataset corpora.
  * Usage: spark-submit ... --class repro.jobs.Table2Job repro.jar [sf]
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder().appName("modis-table2").getOrCreate()
    println(render(spark, sf))
    spark.stop()
  }

  /** Corpus → (#tables, #cols, #rows); Kaggle-lite backs T1+T4,
    * OpenData-lite T2, HF-lite T3 (plus T5's graph counted as edges).
    */
  def render(spark: SparkSession, sf: Double): String = {
    val kaggle = Seq(Runner.lakeByName(spark, "movie", sf), Runner.lakeByName(spark, "mental", sf))
    val openData = Seq(Runner.lakeByName(spark, "house", sf))
    val hf = Seq(Runner.lakeByName(spark, "avocado", sf))
    val rows = Seq(
      ("Kaggle-lite", DataLake.corpusStats(kaggle)),
      ("OpenData-lite", DataLake.corpusStats(openData)),
      ("HF-lite", DataLake.corpusStats(hf)))
    val sb = new StringBuilder("== Table 2: corpus characteristics ==\n")
    sb.append(f"${"Corpus"}%14s | ${"#tables"}%8s | ${"#cols"}%8s | ${"#rows"}%10s\n")
    rows.foreach { case (n, (t, c, r)) =>
      sb.append(f"$n%14s | $t%8d | $c%8d | $r%10d\n")
    }
    sb.toString
  }
}
