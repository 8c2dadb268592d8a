package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.{EvalResult, Runner, State, TabularTask, Universal, UniversalTable}
import repro.lake.TabularLake
import repro.ml.Frame

/** Each baseline outputs a projection of D_U over all of its rows: METAM,
  * METAM-MO and Starmie join key-sharing aux tables onto the base, which D_U
  * already left-joins, and SkSFM/H2O keep columns of D_U. So the baselines'
  * outputs are pinned by their attribute lists (golden, at SF 0.01), and a
  * cut of those attributes from D_U's driver copy must evaluate as the
  * Spark table does. METAM-MO is out of the golden: its utility includes
  * wall-clock `train`.
  */
class BaselineOutputSpec extends SparkSpec {

  private final class Fixture(val name: String) {
    val lake: TabularLake = Runner.lakeByName(spark, name, 0.01)
    val uni: UniversalTable = Universal.build(lake)
    private val full = State.full(uni.layout.width)
    private val sU = uni.project(uni.layout.attrs)
    private val task0 = TabularTask.forLake(lake)
    val task: TabularTask = task0.calibrated(task0.evaluate(sU).get)

    lazy val lists: Map[String, Vector[String]] = Map(
      "METAM" -> Metam.run(uni, task, Runner.primaryMeasure(name)),
      "METAM-MO" -> Metam.runMO(uni, task),
      "Starmie" -> Starmie.run(lake),
      "SkSFM" -> FeatureSelect.skSFM(sU, task),
      "H2O" -> FeatureSelect.h2o(sU, task))

    /** The listed attributes over every row of D_U's driver copy. */
    def cut(attrs: Vector[String]): Frame = uni.project(attrs)

    /** The baseline's output as Spark builds it: the base left-joined with
      * the aux tables the list draws on, in the list's order (METAM,
      * Starmie), or D_U's columns (SkSFM, H2O).
      */
    def sparkTable(method: String, attrs: Vector[String]): DataFrame = method match {
      case "SkSFM" | "H2O" =>
        uni.materialize(full).select((lake.key +: lake.target +: attrs).map(uni.df.col): _*)
      case _ =>
        val joined = lake.aux.filter(t => t.df.columns.exists(attrs.contains))
          .sortBy(t => attrs.indexWhere(t.df.columns.contains))
        joined.foldLeft(lake.base.df)((acc, t) => acc.join(t.df, Seq(lake.key), "left_outer"))
    }
  }

  private val lakes = Seq("movie", "house", "avocado", "mental")
  private lazy val fixtures: Map[String, Fixture] = lakes.map(n => n -> new Fixture(n)).toMap

  // Recorded at SF 0.01, not derived: any change is a change of behaviour.
  private val expected: Map[String, Map[String, Vector[String]]] = Map(
    "movie" -> Map(
      "H2O" -> Vector("inf_1", "inf_2", "inf_3", "inf_5", "inf_4"),
      "METAM" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "inf_3", "inf_5", "nz_1", "nz_4", "inf_4", "nz_2"),
      "SkSFM" -> Vector("seg_quality", "inf_1", "inf_2"),
      "Starmie" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "nz_3", "inf_3", "inf_5", "nz_1", "nz_4", "inf_4", "nz_2")),
    "house" -> Map(
      "H2O" -> Vector("seg_quality", "inf_1", "inf_2", "inf_3", "inf_5", "inf_4", "inf_6", "inf_8", "nz_9"),
      "METAM" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "inf_3", "inf_5", "inf_7", "inf_9", "nz_1", "nz_4", "nz_7", "nz_10", "inf_4", "inf_6", "inf_8", "inf_10", "nz_2", "nz_5", "nz_8", "nz_11"),
      "SkSFM" -> Vector("seg_quality", "inf_1", "inf_2", "inf_3", "inf_4"),
      "Starmie" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "inf_4", "inf_6", "inf_8", "inf_10", "nz_2", "nz_5", "nz_8", "nz_11", "inf_3", "inf_5", "inf_7", "inf_9", "nz_1", "nz_4", "nz_7", "nz_10", "nz_3", "nz_6", "nz_9", "nz_12")),
    "avocado" -> Map(
      "H2O" -> Vector("inf_1", "inf_2", "inf_3", "inf_5", "inf_4"),
      "METAM" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "inf_3", "inf_5", "nz_1", "nz_4", "inf_4", "inf_6", "nz_2", "nz_3"),
      "SkSFM" -> Vector("inf_1", "inf_2", "inf_3"),
      "Starmie" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "nz_3", "inf_4", "inf_6", "nz_2", "inf_3", "inf_5", "nz_1", "nz_4")),
    "mental" -> Map(
      "H2O" -> Vector("inf_1", "inf_2", "inf_3", "inf_5", "inf_4", "inf_6"),
      "METAM" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "inf_3", "inf_5", "inf_7", "nz_1", "nz_4", "nz_7"),
      "SkSFM" -> Vector("seg_quality", "inf_1", "inf_2", "inf_3"),
      "Starmie" -> Vector("seg_quality", "seg_region", "inf_1", "inf_2", "nz_3", "nz_6", "nz_9", "inf_3", "inf_5", "inf_7", "nz_1", "nz_4", "nz_7", "inf_4", "inf_6", "inf_8", "nz_2", "nz_5", "nz_8")))

  private def bits(m: Map[String, Double]): Map[String, Long] =
    m.map { case (k, v) => k -> java.lang.Double.doubleToLongBits(v) }

  /** Equal apart from the wall-clock `train` time and its normalized value. */
  private def assertSame(task: TabularTask, what: String, a: EvalResult, b: EvalResult): Unit = {
    assert(bits(a.raw - "train") == bits(b.raw - "train"), s"$what: raw metrics differ: ${a.raw} vs ${b.raw}")
    val train = task.measureNames.indexOf("train")
    val normA = a.norm.indices.filter(_ != train).map(i => java.lang.Double.doubleToLongBits(a.norm(i)))
    val normB = b.norm.indices.filter(_ != train).map(i => java.lang.Double.doubleToLongBits(b.norm(i)))
    assert(normA == normB, s"$what: norm differs")
    assert((a.rows, a.cols) == (b.rows, b.cols), s"$what: size differs")
  }

  lakes.foreach { name =>
    test(s"$name: the baselines' attribute lists reproduce their golden") {
      val f = fixtures(name)
      assert((f.lists - "METAM-MO") == expected(name))
    }

    test(s"$name: each baseline's driver cut evaluates as its Spark table") {
      val f = fixtures(name)
      f.lists.foreach { case (method, attrs) =>
        val driver = f.task.evaluate(f.cut(attrs)).getOrElse(fail(s"$method: driver cut unusable"))
        val ref = f.task.evaluate(f.sparkTable(method, attrs)).getOrElse(fail(s"$method: Spark table unusable"))
        assertSame(f.task, s"$name $method", driver, ref)
      }
    }
  }
}
