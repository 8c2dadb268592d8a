package repro.core

import org.apache.spark.sql.SparkSession
import repro.baselines.{FeatureSelect, Metam, Starmie}
import repro.graph.GraphSpace
import repro.lake.{DataLake, GraphLake, TabularLake}

/** One row of a comparison table: actual (model-inference) metrics of a
  * method's output dataset plus its size — the paper's reporting protocol
  * ("We apply model inference to all the output tables to report actual
  * performance values").
  */
final case class MethodReport(method: String, raw: Map[String, Double],
                              rows: Long, cols: Int, seconds: Double)

/** Orchestrates the full per-task comparison of Tables 4–6: Original +
  * 5 baselines + 4 MODis variants on tabular tasks; Original + 4 MODis
  * variants on the T5 graph task.
  */
object Runner {

  def lakeByName(spark: SparkSession, name: String, sf: Double): TabularLake =
    DataLake.generic(spark, TabularTask.spec(name).lake, sf)

  /** The measure each task's winner is selected by (Section 6, Exp-1). */
  def primaryMeasure(lakeName: String): String = TabularTask.spec(lakeName).primary

  /** Run the full tabular comparison for one task. */
  def tabularComparison(spark: SparkSession, lakeName: String, sf: Double,
                        cfg: ModisConfig): Vector[MethodReport] = {
    val lake = lakeByName(spark, lakeName, sf)
    val universal = Universal.build(lake)
    // s_U is D_U itself: one driver-side evaluation calibrates and gives the Original row
    val data = universal.driverCopy
    val task0 = TabularTask.forLake(lake)
    val sU = task0.evaluate(data).getOrElse(
      throw new IllegalStateException(s"Original produced an unusable table for $lakeName"))
    val task = task0.calibrated(sU)
    val primary = primaryMeasure(lakeName)
    val primaryIdx = task.measureNames.indexOf(primary)

    // each baseline outputs attributes of D_U over all its rows, evaluated on the driver copy
    def report(name: String, baseline: => Vector[String]): MethodReport = {
      val t0 = System.nanoTime()
      val attrs = baseline
      val secs = (System.nanoTime() - t0) / 1e9
      val r = task.evaluate(universal.project(attrs)).getOrElse(
        throw new IllegalStateException(s"$name produced an unusable table for $lakeName"))
      MethodReport(name, r.raw, r.rows, r.cols, secs)
    }

    val original = MethodReport("Original", sU.raw, sU.rows, sU.cols, 0.0)

    val baselines = Vector(
      report("METAM", Metam.run(universal, task, primary)),
      report("METAM-MO", Metam.runMO(universal, task)),
      report("Starmie", Starmie.run(lake)),
      report("SkSFM", FeatureSelect.skSFM(data, task)),
      report("H2O", FeatureSelect.h2o(data, task)),
    )

    val modis = modisReports(() => new TabularSpace(universal, task), cfg, primaryIdx)
    original +: (baselines ++ modis)
  }

  /** The four MODis variants, each on a fresh state space so per-method
    * discovery time is honest (no cross-method evaluation cache).
    */
  def modisReports(spaceFactory: () => StateSpace, cfg: ModisConfig,
                   primaryIdx: Int): Vector[MethodReport] =
    Modis.all.map { m =>
      val space = spaceFactory()
      val valuator = new SurrogateValuator(space, cfg.bootstrap)
      val t0 = System.nanoTime()
      val result = m.run(space, valuator, cfg)
      val secs = (System.nanoTime() - t0) / 1e9
      val best = result.bestBy(primaryIdx).getOrElse(
        throw new IllegalStateException(s"${m.name} produced an empty skyline"))
      // estimated winner unusable in reality: fall back to any usable entry
      val exact = valuator.exact(best._1)
        .orElse(result.skyline.iterator.flatMap(e => valuator.exact(e._1)).nextOption())
        .getOrElse(throw new IllegalStateException(
          s"${m.name}: no skyline entry evaluates as usable"))
      MethodReport(m.name, exact.raw, exact.rows, exact.cols, secs)
    }

  /** Table 5: MODis methods on the T5 graph task (plus the full graph as
    * "Original"), each method's winner picked by P@5 (`pc5`).
    */
  def graphComparison(sf: Double, cfg: ModisConfig): Vector[MethodReport] = {
    val lake = GraphLake.generate(sf)
    val probe = new GraphSpace(lake)
    val full = probe.evaluate(probe.full).getOrElse(
      throw new IllegalStateException("full graph unusable"))
    val original = MethodReport("Original", full.raw, full.rows, full.cols, 0.0)
    val primaryIdx = probe.measures.indexWhere(_.name == "pc5")
    require(primaryIdx >= 0, s"pc5 not in the graph measures ${probe.measures.map(_.name)}")
    original +: modisReports(() => new GraphSpace(lake), cfg, primaryIdx)
  }

  /** Render a comparison as an aligned text table (rows = metrics, columns
    * = methods) in the shape of the paper's Tables 4–6.
    */
  def formatTable(title: String, metricKeys: Seq[(String, String)],
                  reports: Seq[MethodReport]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    val header = ("Metric" +: reports.map(_.method)).map(c => f"$c%12s").mkString(" | ")
    sb.append(header).append('\n')
    sb.append("-" * header.length).append('\n')
    for ((key, label) <- metricKeys) {
      val cells = reports.map(r => r.raw.get(key).map(v => f"$v%12.4f").getOrElse(f"${"-"}%12s"))
      sb.append((f"$label%12s" +: cells).mkString(" | ")).append('\n')
    }
    val sizes = reports.map(r => f"${s"(${r.rows},${r.cols})"}%12s")
    sb.append((f"${"Output Size"}%12s" +: sizes).mkString(" | ")).append('\n')
    val secs = reports.map(r => f"${r.seconds}%12.2f")
    sb.append((f"${"Gen sec"}%12s" +: secs).mkString(" | ")).append('\n')
    sb.toString
  }
}
