package repro.lake

import repro.SparkSpec
import repro.Oracle
import repro.core.Runner

class DataLakeSpec extends SparkSpec {

  private lazy val movie = Runner.lakeByName(spark, "movie", 0.01)
  private lazy val house = Runner.lakeByName(spark, "house", 0.01)

  test("base table has key, target and segment attrs") {
    val cols = movie.base.df.columns.toSet
    assert(cols.contains("id") && cols.contains("target"))
    assert(movie.segmentAttrs.forall(cols.contains))
  }

  test("base covers every id exactly once") {
    val n = movie.base.df.count()
    assert(movie.base.df.select("id").distinct().count() == n)
  }

  test("row count follows rowsAt scaling") {
    assert(movie.base.df.count() == DataLake.rowsAt(3732, 0.01))
  }

  test("rowsAt clamps into [200, 8000]") {
    assert(DataLake.rowsAt(100, 0.001) == 200)
    assert(DataLake.rowsAt(1000000, 1.0) == 8000)
    assert(DataLake.rowsAt(3732, 0.1) == 3732)
  }

  test("aux tables are joinable on the key and have partial coverage") {
    movie.aux.foreach { t =>
      assert(t.df.columns.contains("id"))
      assert(t.df.count() <= movie.base.df.count())
    }
    assert(movie.aux.exists(t => t.df.count() < movie.base.df.count()))
  }

  test("informative and noise attrs are scattered over the sources") {
    val all = movie.featureAttrs.toSet
    assert(movie.informativeAttrs.subsetOf(all))
    assert(movie.noiseAttrs.subsetOf(all))
  }

  test("distractor tables are not joinable on the lake key") {
    movie.distractors.foreach(t => assert(!t.df.columns.contains("id")))
  }

  test("classification lakes have 0/1 targets") {
    val vals = house.base.df.select("target").distinct().collect().map(_.getDouble(0)).toSet
    assert(vals == Set(0.0, 1.0))
  }

  test("regression lake target is continuous") {
    val distinct = movie.base.df.select("target").distinct().count()
    assert(distinct > 50)
  }

  test("generation is deterministic") {
    val a = Runner.lakeByName(spark, "movie", 0.01).base.df.collect().map(_.toString).sorted.toSeq
    val b = Runner.lakeByName(spark, "movie", 0.01).base.df.collect().map(_.toString).sorted.toSeq
    assert(a == b)
  }

  test("house lake carries more attributes than movie lake") {
    assert(house.featureAttrs.size > movie.featureAttrs.size)
  }

  test("all four lakes build at test scale") {
    Seq(Runner.lakeByName(spark, "movie", 0.01), Runner.lakeByName(spark, "house", 0.01),
      Runner.lakeByName(spark, "avocado", 0.01), Runner.lakeByName(spark, "mental", 0.01)).foreach { l =>
      assert(l.base.df.count() >= 200)
      assert(l.aux.nonEmpty && l.distractors.nonEmpty)
    }
  }

  test("corpusStats adds up tables, columns and rows") {
    val (t, c, r) = DataLake.corpusStats(Seq(movie))
    val tables = movie.allSources ++ movie.distractors
    assert(t == tables.size)
    assert(c == tables.map(_.df.columns.length).sum)
    assert(r == tables.map(_.df.count()).sum)
  }

  test("oracle: base inner-join aux1 matches DuckDB") {
    val aux1 = movie.aux.head
    val joined = movie.base.df.select("id", "target")
      .join(aux1.df.select("id"), Seq("id"), "inner")
      .selectExpr("cast(id as long) as id", "cast(target as double) as target")
    Oracle.assertEquivalent(
      joined,
      s"""SELECT CAST(b.id AS BIGINT) AS id, CAST(b.target AS DOUBLE) AS target
         |FROM base b JOIN aux1 a ON b.id = a.id""".stripMargin,
      "base" -> movie.base.df.select("id", "target"),
      "aux1" -> aux1.df.select("id"))
  }

  test("oracle: left-outer join null pattern matches DuckDB") {
    val aux1 = movie.aux.head
    val firstFeat = aux1.df.columns.filterNot(_ == "id").head
    val joined = movie.base.df.select("id")
      .join(aux1.df.select("id", firstFeat), Seq("id"), "left_outer")
      .selectExpr("cast(id as long) as id", s"cast($firstFeat as double) as v")
    Oracle.assertEquivalent(
      joined,
      s"""SELECT CAST(b.id AS BIGINT) AS id, CAST(a.$firstFeat AS DOUBLE) AS v
         |FROM base b LEFT OUTER JOIN aux1 a ON b.id = a.id""".stripMargin,
      "base" -> movie.base.df.select("id"),
      "aux1" -> aux1.df.select("id", firstFeat))
  }
}
