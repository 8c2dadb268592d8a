package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{ModisConfig, Runner}

/** Table 5 — MODis methods on T5 (LightGCN link regression).
  * Usage: spark-submit ... --class repro.jobs.Table5Job repro.jar [sf]
  */
object Table5Job {
  val metrics: Seq[(String, String)] = Seq(
    "pc5" -> "p_Pc5", "pc10" -> "p_Pc10", "rc5" -> "p_Rc5",
    "rc10" -> "p_Rc10", "nc5" -> "p_Nc5", "nc10" -> "p_Nc10")

  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder().appName("modis-table5").getOrCreate()
    println(render(sf))
    spark.stop()
  }

  def render(sf: Double, cfg: ModisConfig = TableConfig.Graph): String = {
    val reports = Runner.graphComparison(sf, cfg)
    Runner.formatTable("Table 5 / T5: LightGCN recommendation", metrics, reports)
  }
}
