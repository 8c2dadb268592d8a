package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{ModisConfig, Runner}

/** Table 4 — multi-objective comparison on T2 (House) and T4 (Mental).
  * Usage: spark-submit ... --class repro.jobs.Table4Job repro.jar [sf]
  */
object Table4Job {
  val houseMetrics: Seq[(String, String)] = Seq(
    "f1" -> "p_F1", "acc" -> "p_Acc", "train" -> "p_Train(s)",
    "fsc" -> "p_Fsc", "mi" -> "p_MI")
  val mentalMetrics: Seq[(String, String)] = Seq(
    "acc" -> "p_Acc", "prec" -> "p_Pc", "rec" -> "p_Rc",
    "f1" -> "p_F1", "auc" -> "p_AUC", "train" -> "p_Train(s)")

  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder().appName("modis-table4").getOrCreate()
    println(render(spark, sf))
    spark.stop()
  }

  def render(spark: SparkSession, sf: Double, cfg: ModisConfig = TableConfig.Tabular): String = {
    val house = Runner.tabularComparison(spark, "house", sf, cfg)
    val mental = Runner.tabularComparison(spark, "mental", sf, cfg)
    Runner.formatTable("Table 4 / T2: House (RF classification)", houseMetrics, house) + "\n" +
      Runner.formatTable("Table 4 / T4: Mental (GBM classification)", mentalMetrics, mental)
  }
}
