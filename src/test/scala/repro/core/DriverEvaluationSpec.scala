package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.udf
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.lake.TabularLake

/** A state evaluated from D_U's driver copy must give what the Spark
  * reference path gives: `task.evaluate(uni.materialize(s))`. The searches
  * themselves must run no Spark job over D_U.
  */
class DriverEvaluationSpec extends SparkSpec {

  private final class Fixture(lake: TabularLake) {
    val uni: UniversalTable = Universal.build(lake)
    val task: TabularTask =
      TabularTask.forLake(lake).calibrated(uni.materialize(State.full(uni.layout.width)))
    val space = new TabularSpace(uni, task)
    private val l = uni.layout

    /** The smallest dataset the clusters allow: one cluster kept per
      * segment attribute, the combination with the fewest rows.
      */
    val smallest: State = {
      val cs = uni.combinations
      val combo = cs.clusters(cs.counts.indices.minBy(c => (cs.counts(c), cs.clusters(c).mkString(","))))
      l.segAttrs.zipWithIndex.foldLeft(space.full) { case (s, (seg, i)) =>
        (0 until uni.clusterings(seg).k).filter(_ != combo(i))
          .foldLeft(s)((t, c) => t.clear(l.clusterIdx(seg, c)))
      }
    }

    def states: Seq[(String, State)] =
      Seq("full" -> space.full, "backStart" -> space.backStart) ++
        l.segAttrs.map(seg => s"$seg cluster 0 masked" -> space.full.clear(l.clusterIdx(seg, 0))) ++
        Seq(s"only ${l.attrs.head} kept" -> l.attrs.tail.foldLeft(space.full)((s, a) => s.clear(l.attrIdx(a))),
          "smallest" -> smallest)
  }

  private lazy val house = new Fixture(Runner.lakeByName(spark, "house", 0.01))
  private lazy val avocado = new Fixture(Runner.lakeByName(spark, "avocado", 0.01))
  private lazy val mental = new Fixture(Runner.lakeByName(spark, "mental", 0.01))

  private def bits(m: Map[String, Double]): Map[String, Long] =
    m.map { case (k, v) => k -> java.lang.Double.doubleToLongBits(v) }

  /** Equal apart from the wall-clock `train` time and its normalized value. */
  private def assertSame(f: Fixture, name: String, s: State): Unit = {
    val driver = f.space.evaluate(s)
    val ref = f.task.evaluate(f.uni.materialize(s))
    assert(driver.isDefined == ref.isDefined, s"$name: usable on one side only")
    for (a <- driver; b <- ref) {
      assert(bits(a.raw - "train") == bits(b.raw - "train"), s"$name: raw metrics differ: ${a.raw} vs ${b.raw}")
      val train = f.task.measureNames.indexOf("train")
      val normA = a.norm.indices.filter(_ != train).map(a.norm)
      val normB = b.norm.indices.filter(_ != train).map(b.norm)
      assert(normA.map(java.lang.Double.doubleToLongBits) == normB.map(java.lang.Double.doubleToLongBits),
        s"$name: norm differs")
      assert((a.rows, a.cols) == (b.rows, b.cols), s"$name: size differs")
    }
  }

  Seq("house" -> (() => house), "avocado" -> (() => avocado), "mental" -> (() => mental)).foreach {
    case (name, fixture) =>
      test(s"$name: driver-side evaluation equals the Spark path on sampled states") {
        val f = fixture()
        f.states.foreach { case (what, s) => assertSame(f, s"$name $what", s) }
      }
  }

  Seq("mental" -> (() => mental), "avocado" -> (() => avocado)).foreach { case (name, fixture) =>
    test(s"$name: the searches and the winners' exact evaluations run no Spark job over D_U") {
      val f = fixture()
      val boom = udf(() => sys.error("a Spark job ran over D_U"): Boolean).asNondeterministic()
      val noSpark = f.uni.copy(df = f.uni.df.filter(boom()))
      val e = intercept[Exception](noSpark.materialize(f.space.full).count())
      assert(e.getMessage.contains("a Spark job ran over D_U"), e.getMessage)
      val primaryIdx = f.task.measureNames.indexOf(Runner.primaryMeasure(name))
      val reports = Runner.modisReports(() => new TabularSpace(noSpark, f.task),
        ModisConfig(n = 40, eps = 0.2, maxl = 4, bootstrap = 15), primaryIdx)
      assert(reports.map(_.method) == Vector("ApxMODis", "NOBiMODis", "BiMODis", "DivMODis"))
    }
  }

  test("house: the smallest state is too small to train on both paths") {
    assert(house.uni.rowCount(house.smallest) < TabularTask.MinRows)
    assert(house.space.evaluate(house.smallest).isEmpty)
    assert(house.task.evaluate(house.uni.materialize(house.smallest)).isEmpty)
  }

  test("oracle: driver-side selection of a masked-cluster state equals DuckDB") {
    val u = house.uni
    val l = u.layout
    // every other attribute dropped, cluster 0 of each segment attribute masked
    val s = l.attrs.indices.filter(_ % 2 == 1).foldLeft(
      l.segAttrs.foldLeft(house.space.full)((t, seg) => t.clear(l.clusterIdx(seg, 0))))(_.clear(_))
    val (d, rows) = (u.project(l.attrsOf(s)), u.rowIndices(s))
    val schema = StructType(StructField(u.key, LongType, nullable = false) +:
      StructField(u.target, DoubleType, nullable = false) +:
      d.names.map(StructField(_, DoubleType, nullable = true)))
    val driverRows = rows.toSeq.map { r =>
      Row.fromSeq(d.keys(r) +: d.y(r) +: d.cols.toSeq.map(c => if (c(r).isNaN) null else c(r)))
    }
    val driverDf = spark.createDataFrame(spark.sparkContext.parallelize(driverRows, 2), schema)
    val select = (s"CAST(${u.key} AS BIGINT) AS ${u.key}" +:
      (u.target +: d.names).map(c => s"CAST($c AS DOUBLE) AS $c")).mkString(", ")
    val where = l.segAttrs.map { seg =>
      s"CAST(${u.hiddenCol(seg)} AS INTEGER) IN (${l.clustersOf(s, seg).toSeq.sorted.mkString(", ")})"
    }.mkString(" AND ")
    assert(rows.exists(r => d.cols.exists(_(r).isNaN)), "the state should carry outer-join nulls")
    Oracle.assertEquivalent(driverDf, s"SELECT $select FROM u WHERE $where",
      "u" -> u.df.select(((u.key +: u.target +: d.names) ++ l.segAttrs.map(u.hiddenCol)).map(u.df.col): _*))
  }
}
