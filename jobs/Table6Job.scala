package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{ModisConfig, Runner}

/** Table 6 (Appendix B) — comparison on T1 (Movie, GBM regression) and T3
  * (Avocado, linear regression).
  * Usage: spark-submit ... --class repro.jobs.Table6Job repro.jar [sf]
  */
object Table6Job {
  val movieMetrics: Seq[(String, String)] = Seq(
    "acc" -> "p_Acc", "train" -> "p_Train(s)", "fsc" -> "p_Fsc", "mi" -> "p_MI")
  val avocadoMetrics: Seq[(String, String)] = Seq(
    "mse" -> "MSE", "mae" -> "MAE", "train" -> "Train(s)")

  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder().appName("modis-table6").getOrCreate()
    println(render(spark, sf))
    spark.stop()
  }

  def render(spark: SparkSession, sf: Double, cfg: ModisConfig = TableConfig.Tabular): String = {
    val movie = Runner.tabularComparison(spark, "movie", sf, cfg)
    val avocado = Runner.tabularComparison(spark, "avocado", sf, cfg)
    Runner.formatTable("Table 6 / T1: Movie (GBM regression)", movieMetrics, movie) + "\n" +
      Runner.formatTable("Table 6 / T3: Avocado (linear regression)", avocadoMetrics, avocado)
  }
}
