package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.Oracle
import repro.lake.{LakeTable, TabularLake}
import repro.ml.Frame

class UniversalSpec extends SparkSpec {

  private lazy val lake = Runner.lakeByName(spark, "movie", 0.01)
  private lazy val uni = Universal.build(lake)

  /** A tiny source table: `id` and the given double columns. */
  private def table(name: String, fields: Seq[String], rows: Seq[Row]): LakeTable = {
    val schema = StructType(StructField("id", LongType, nullable = false) +:
      fields.map(StructField(_, DoubleType, nullable = false)))
    LakeTable(name, spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema))
  }

  test("universal table preserves every labelled base row") {
    assert(uni.df.count() == lake.base.df.count())
  }

  test("universal schema is the union of source schemas") {
    val expected = (lake.base.df.columns ++ lake.aux.flatMap(_.df.columns)).toSet
    assert(expected.subsetOf(uni.df.columns.toSet))
  }

  test("hidden cluster columns exist for every segment attr") {
    lake.segmentAttrs.foreach(a => assert(uni.df.columns.contains(s"__cl_$a")))
  }

  test("cluster ids are in range") {
    lake.segmentAttrs.foreach { a =>
      val k = uni.clusterings(a).k
      val ids = uni.df.select(s"__cl_$a").distinct().collect().map(_.getInt(0)).toSet
      assert(ids.forall(c => c >= 0 && c < k))
    }
  }

  test("segment clustering recovers the generated well-separated groups") {
    // seg_quality values were generated at c*2 + U(0,0.9) per cluster
    assert(uni.clusterings("seg_quality").k >= 3)
  }

  test("combination counts sum to the row count") {
    assert(uni.combinations.counts.sum == uni.df.count())
  }

  test("rowCount of the full state equals the table size") {
    assert(uni.rowCount(State.full(uni.layout.width)) == uni.df.count())
  }

  test("rowCount after masking one cluster matches a Spark filter") {
    val seg = uni.layout.segAttrs.head
    val s = State.full(uni.layout.width).clear(uni.layout.clusterIdx(seg, 0))
    val expected = uni.df.filter(s"__cl_$seg <> 0").count()
    assert(uni.rowCount(s) == expected)
    assert(uni.materialize(s).count() == expected)
  }

  test("materialize keeps only selected attributes plus key and target") {
    val keep = uni.layout.attrs.take(2)
    var s = State.full(uni.layout.width)
    uni.layout.attrs.drop(2).foreach(a => s = s.clear(uni.layout.attrIdx(a)))
    val cols = uni.materialize(s).columns.toSet
    assert(cols == (Set(uni.key, uni.target) ++ keep))
  }

  test("materialize of an all-clusters-masked state is empty") {
    val seg = uni.layout.segAttrs.head
    var s = State.full(uni.layout.width)
    (0 until uni.clusterings(seg).k).foreach(c => s = s.clear(uni.layout.clusterIdx(seg, c)))
    assert(uni.materialize(s).count() == 0)
  }

  test("oracle: universal join equals DuckDB multi-way left join") {
    val a1 = lake.aux.head
    val a1Col = a1.df.columns.filterNot(_ == "id").head
    val sparkSide = lake.base.df.select("id", "target")
      .join(a1.df.select("id", a1Col), Seq("id"), "left_outer")
      .selectExpr("cast(id as long) as id", "cast(target as double) as target",
        s"cast($a1Col as double) as f")
    Oracle.assertEquivalent(
      sparkSide,
      s"""SELECT CAST(b.id AS BIGINT) AS id, CAST(b.target AS DOUBLE) AS target,
         |       CAST(a.$a1Col AS DOUBLE) AS f
         |FROM base b LEFT OUTER JOIN aux a ON b.id = a.id""".stripMargin,
      "base" -> lake.base.df.select("id", "target"),
      "aux" -> a1.df.select("id", a1Col))
  }

  test("oracle: cluster filter equals DuckDB range predicate") {
    val seg = "seg_quality"
    val cl = uni.clusterings(seg)
    // cluster 0 = values <= first boundary
    val bound = cl.boundaries.head
    val sparkSide = uni.df.filter(s"__cl_$seg = 0")
      .selectExpr("cast(id as long) as id")
    Oracle.assertEquivalent(
      sparkSide,
      s"SELECT CAST(id AS BIGINT) AS id FROM u WHERE CAST($seg AS DOUBLE) <= $bound",
      "u" -> uni.df.select("id", seg))
  }

  test("oracle: masked-cluster materialization equals DuckDB anti-range") {
    val seg = "seg_quality"
    val cl = uni.clusterings(seg)
    val bound = cl.boundaries.head
    val s = State.full(uni.layout.width).clear(uni.layout.clusterIdx(seg, 0))
    val sparkSide = uni.materialize(s).selectExpr("cast(id as long) as id")
    Oracle.assertEquivalent(
      sparkSide,
      s"SELECT CAST(id AS BIGINT) AS id FROM u WHERE CAST($seg AS DOUBLE) > $bound",
      "u" -> uni.df.select("id", seg))
  }

  test("driver copy holds D_U in key order with Spark's cluster ids") {
    val d = uni.driverCopy
    val segs = uni.layout.segAttrs
    val rows = uni.df.select((uni.key +: segs.map(uni.hiddenCol)).map(uni.df.col): _*)
      .collect().sortBy(_.getLong(0))
    assert(d.keys.toSeq == rows.map(_.getLong(0)).toSeq)
    val cs = uni.combinations
    segs.indices.foreach(i => assert(cs.ofRow.toSeq.map(cs.clusters(_)(i)) == rows.map(_.getInt(i + 1)).toSeq))
    assert(d.cols.length == uni.layout.attrs.size && d.cols.forall(_.length == d.keys.length))
  }

  test("oracle: combination counts equal DuckDB GROUP BY over the cluster ids") {
    val segs = uni.layout.segAttrs
    val schema = StructType(segs.indices.map(i => StructField(s"c$i", IntegerType, nullable = false)) :+
      StructField("n", LongType, nullable = false))
    val cs = uni.combinations
    val rows = cs.clusters.indices.map(c => Row.fromSeq(cs.clusters(c).toSeq :+ cs.counts(c)))
    val counts = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
    val ids = segs.map(uni.hiddenCol)
    val select = ids.zipWithIndex.map { case (c, i) => s"CAST($c AS INTEGER) AS c$i" }
    Oracle.assertEquivalent(counts,
      s"SELECT ${(select :+ "COUNT(*) AS n").mkString(", ")} FROM u GROUP BY ${select.indices.map(_ + 1).mkString(", ")}",
      "u" -> uni.df.select(ids.map(uni.df.col): _*))
  }

  test("a segment attribute with nulls in D_U is an error naming it") {
    val base = table("b", Seq("target", "f"), (0L until 60L).map(i => Row(i, (i % 2).toDouble, i * 0.5)))
    // the aux table covers two keys in three, so the left join leaves nulls
    val aux = table("a", Seq("seg_aux"),
      (0L until 60L).filter(_ % 3 != 0).map(i => Row(i, (i % 4) * 2.0)))
    val lake = TabularLake("nulls", "id", "target", base, Seq(aux), Nil, Seq("seg_aux"),
      classification = true, informativeAttrs = Set("f"), noiseAttrs = Set.empty)
    val e = intercept[IllegalArgumentException](Universal.build(lake))
    assert(e.getMessage.contains("seg_aux"))
    // a NaN cell has no cluster either (the driver reads null as NaN)
    val nan = table("n", Seq("seg_nan"), (0L until 60L).map(i => Row(i, if (i % 7 == 0) Double.NaN else i % 3 * 1.0)))
    val nanLake = lake.copy(aux = Seq(nan), segmentAttrs = Seq("seg_nan"))
    val e2 = intercept[IllegalArgumentException](Universal.build(nanLake))
    assert(e2.getMessage.contains("seg_nan"))
  }

  test("a key twice in the base or in an aux table is an error naming it") {
    val rows = (0L until 60L).map(i => Row(i, (i % 2).toDouble, i * 0.5))
    val base = table("b", Seq("target", "f"), rows)
    val aux = table("a", Seq("g"), (0L until 60L).map(i => Row(i, i * 2.0)))
    val lake = TabularLake("dups", "id", "target", base, Seq(aux), Nil, Nil,
      classification = true, informativeAttrs = Set("f"), noiseAttrs = Set.empty)
    assert(Universal.build(lake).driverCopy.nRows == 60)
    // the join would repeat key 7's rows; the driver must not keep one silently
    val dupBase = lake.copy(base = table("b2", Seq("target", "f"), rows :+ Row(7L, 1.0, 9.0)))
    val e = intercept[IllegalArgumentException](Universal.build(dupBase))
    assert(e.getMessage.contains("table b2") && e.getMessage.contains("id value 7"), e.getMessage)
    val dupAux = lake.copy(aux = Seq(table("a2", Seq("g"), (0L until 60L).map(i => Row(i, i * 2.0)) :+ Row(7L, 3.0))))
    val e2 = intercept[IllegalArgumentException](Universal.build(dupAux))
    assert(e2.getMessage.contains("table a2") && e2.getMessage.contains("id value 7"), e2.getMessage)
  }

  test("a non-key column in two sources is an error naming it and both tables") {
    val base = table("t_base", Seq("target", "f"), (0L until 60L).map(i => Row(i, (i % 2).toDouble, i * 0.5)))
    // the aux table repeats the base's column f: the Spark join could not tell the two apart
    val aux = table("t_aux", Seq("g", "f"), (0L until 60L).map(i => Row(i, i * 2.0, i * 3.0)))
    val lake = TabularLake("shared", "id", "target", base, Seq(aux), Nil, Nil,
      classification = true, informativeAttrs = Set("f"), noiseAttrs = Set.empty)
    val e = intercept[IllegalArgumentException](Universal.build(lake))
    assert(Seq("column f", "t_base", "t_aux").forall(e.getMessage.contains), e.getMessage)
  }

  test("driver join equals the Spark join bit for bit on every Table lake") {
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    for (name <- TabularTask.Specs.map(_.lake.name)) {
      val l = Runner.lakeByName(spark, name, 0.01)
      val u = Universal.build(l)
      val (d, r) = (u.driverCopy, Frame.collect(u.df, u.key, u.target, u.layout.attrs))
      assert(d.keys.toSeq == r.keys.toSeq, name)
      assert(d.names == r.names, name)
      assert(bits(d.y) == bits(r.y), name)
      d.names.indices.foreach(j => assert(bits(d.cols(j)) == bits(r.cols(j)), s"$name ${d.names(j)}"))
      // the aux tables cover only some keys, so the comparison includes NaN cells
      assert(d.cols.exists(_.exists(_.isNaN)), name)
    }
  }

  test("D_U does not depend on how the sources are partitioned or ordered") {
    def reversed(t: LakeTable): LakeTable =
      t.copy(df = spark.createDataFrame(spark.sparkContext.parallelize(t.df.collect().reverse.toSeq, 3), t.df.schema))
    val shuffled = lake.copy(base = reversed(lake.base), aux = lake.aux.map(t => t.copy(df = t.df.repartition(5))))
    uni.driverCopy // built under the session's settings
    // Small joins are coalesced into one partition and sorted by key, so the
    // rows would come back in key order anyway; uncoalesced, they come back
    // in hash-partition order.
    val conf = Seq("spark.sql.shuffle.partitions" -> "7", "spark.sql.adaptive.coalescePartitions.enabled" -> "false")
    val saved = conf.map { case (k, _) => k -> spark.conf.get(k) }
    conf.foreach { case (k, v) => spark.conf.set(k, v) }
    val other = try Universal.build(shuffled) finally saved.foreach { case (k, v) => spark.conf.set(k, v) }
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    lake.segmentAttrs.foreach { a =>
      assert(bits(other.clusterings(a).boundaries) == bits(uni.clusterings(a).boundaries), a)
      assert(bits(other.clusterings(a).centroids) == bits(uni.clusterings(a).centroids), a)
    }
    val (c, o) = (uni.combinations, other.combinations)
    assert(c.clusters.map(_.toSeq).toSeq == o.clusters.map(_.toSeq).toSeq)
    assert(c.counts.toSeq == o.counts.toSeq)
    val (d, e) = (uni.driverCopy, other.driverCopy)
    assert(d.keys.toSeq == e.keys.toSeq)
    assert(bits(d.y) == bits(e.y))
    assert(d.cols.map(bits).toSeq == e.cols.map(bits).toSeq)
    assert(c.ofRow.toSeq == o.ofRow.toSeq)
  }

  test("layout cluster bits match the clustering sizes") {
    val expected = uni.layout.segAttrs.map(a => uni.clusterings(a).k).sum
    assert(uni.layout.width - uni.layout.attrs.size == expected)
  }
}
