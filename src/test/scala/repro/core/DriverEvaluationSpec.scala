package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.udf
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, TableLakes}
import repro.ml.Frame

/** A state evaluated from D_U's driver copy must give what the Spark
  * reference path gives: the task's evaluation of the state's rows and
  * columns as Spark selects them, cut from one batched reference query per
  * lake (`TableLakes.Fixture.referenceFrames`), which one test proves equal
  * to `Frame.collect(uni.materialize(s))`. The searches themselves must run
  * no Spark job over D_U.
  */
class DriverEvaluationSpec extends SparkSpec {

  private final class Fixture(name: String) {
    private val shared = TableLakes(name)
    lazy val uni: UniversalTable = shared.uni
    lazy val task: TabularTask = shared.task
    lazy val space = new TabularSpace(uni, task)
    private lazy val l = uni.layout

    /** The smallest dataset the clusters allow: one cluster kept per
      * segment attribute, the combination with the fewest rows.
      */
    lazy val smallest: State = {
      val cs = uni.combinations
      val combo = cs.clusters(cs.counts.indices.minBy(c => (cs.counts(c), cs.clusters(c).mkString(","))))
      l.segAttrs.zipWithIndex.foldLeft(space.full) { case (s, (seg, i)) =>
        (0 until uni.clusterings(seg).k).filter(_ != combo(i))
          .foldLeft(s)((t, c) => t.clear(l.clusterIdx(seg, c)))
      }
    }

    lazy val states: Seq[(String, State)] =
      Seq("full" -> space.full, "backStart" -> space.backStart) ++
        l.segAttrs.map(seg => s"$seg cluster 0 masked" -> space.full.clear(l.clusterIdx(seg, 0))) ++
        Seq(s"only ${l.attrs.head} kept" -> l.attrs.tail.foldLeft(space.full)((s, a) => s.clear(l.attrIdx(a))),
          "smallest" -> smallest)

    /** Each state's Spark reference `Frame`, from one query over D_U. */
    lazy val references: Map[String, Frame] =
      states.map(_._1).zip(shared.referenceFrames(states.map(_._2))).toMap
  }

  private val fixtures = Seq("house", "avocado", "mental").map(n => n -> new Fixture(n)).toMap
  private def house = fixtures("house")

  test("house: each state's batched reference Frame equals Frame.collect of its materialize") {
    val u = house.uni
    house.states.foreach { case (what, s) =>
      TableLakes.assertSameFrame(what, house.references(what),
        Frame.collect(u.materialize(s), u.key, u.target, u.layout.attrsOf(s)))
    }
  }

  Seq("house", "avocado", "mental").foreach { name =>
    test(s"$name: driver-side evaluation equals the Spark path on sampled states") {
      val f = fixtures(name)
      f.states.foreach { case (what, s) =>
        val driver = f.space.evaluate(s)
        val ref = f.task.evaluate(f.references(what))
        assert(driver.isDefined == ref.isDefined, s"$name $what: usable on one side only")
        for (a <- driver; b <- ref) TableLakes.assertSameEval(f.task, s"$name $what", a, b)
      }
    }
  }

  Seq("mental", "avocado").foreach { name =>
    test(s"$name: the searches and the winners' exact evaluations run no Spark job over D_U") {
      val f = fixtures(name)
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
    assert(house.task.evaluate(house.references("smallest")).isEmpty)
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
