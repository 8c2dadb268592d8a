package repro.ml

import repro.SparkSpec

class FrameSpec extends SparkSpec {
  import org.apache.spark.sql.Row
  import org.apache.spark.sql.types._

  // keys arrive out of order, as Spark partitions may deliver them
  private def df = {
    val schema = StructType(Array(
      StructField("id", LongType), StructField("y", DoubleType), StructField("a", DoubleType),
      StructField("b", DoubleType, nullable = true)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(
        Row(3L, 1.0, 6.0, 9.0), Row(1L, 1.0, 2.0, 3.0), Row(2L, 0.0, 4.0, null))),
      schema)
  }

  test("collect extracts keys, labels and features in key order") {
    val f = Frame.collect(df, "id", "y", Seq("a", "b"))
    assert(f.nRows == 3 && f.nCols == 2)
    assert(f.keys.toSeq == Seq(1L, 2L, 3L))
    assert(f.y.toSeq == Seq(1.0, 0.0, 1.0))
    assert(f.cols(0).toSeq == Seq(2.0, 4.0, 6.0))
  }

  test("nulls become NaN") {
    val f = Frame.collect(df, "id", "y", Seq("a", "b"))
    assert(f.cols(1)(1).isNaN)
  }

  test("a cell that is not a number is an error naming it, not NaN") {
    val schema = StructType(Array(
      StructField("id", LongType), StructField("y", DoubleType), StructField("s", StringType)))
    val bad = spark.createDataFrame(spark.sparkContext.parallelize(Seq(Row(1L, 1.0, "abc"))), schema)
    val e = intercept[IllegalArgumentException](Frame.collect(bad, "id", "y", Seq("s")))
    assert(e.getMessage.contains("abc"))
  }

  test("columnMeans ignores NaN") {
    val f = Frame.collect(df, "id", "y", Seq("a", "b"))
    val means = f.columnMeans(Array(0, 1, 2))
    assert(math.abs(means(0) - 4.0) < 1e-9)
    assert(math.abs(means(1) - 6.0) < 1e-9)
  }

  test("imputed replaces NaN with fill values") {
    val f = Frame.collect(df, "id", "y", Seq("a", "b"))
    val all = Array(0, 1, 2)
    val g = f.imputedRows(all, f.columnMeans(all))
    assert(!g.exists(_.exists(_.isNaN)))
  }

  test("columnMeans of all-NaN column is 0") {
    val f = Frame(Array(0L, 1L), Vector("c"), Array(Array(Double.NaN, Double.NaN)), Array(1.0, 2.0))
    assert(f.columnMeans(Array(0, 1)).toSeq == Seq(0.0))
  }

  // rows 0..4: a = 1, NaN, 3, 10, NaN; b = NaN, NaN, 5, NaN, 7
  private val five = Frame(Array.range(0, 5).map(_.toLong), Vector("a", "b"),
    Array(Array(1.0, Double.NaN, 3.0, 10.0, Double.NaN), Array(Double.NaN, Double.NaN, 5.0, Double.NaN, 7.0)),
    Array(0.0, 1.0, 0.0, 1.0, 0.0))

  test("columnMeans over a row subset reads only those rows and skips NaN") {
    assert(five.columnMeans(Array(0, 1, 2)).toSeq == Seq(2.0, 5.0))
    assert(five.columnMeans(Array(2, 3, 4)).toSeq == Seq(6.5, 6.0))
  }

  test("columnMeans over a row subset is 0.0 for a column that is NaN on every one of them") {
    assert(five.columnMeans(Array(0, 1, 3)).toSeq == Seq(5.5, 0.0))
    assert(five.columnMeans(Array(1)).toSeq == Seq(0.0, 0.0))
  }

  test("columnMeans adds a column's values in row order") {
    // (1e16 + 1) + 1 rounds twice; 1 + 1 + 1e16 does not
    val f = Frame(Array(0L, 1L, 2L), Vector("c"), Array(Array(1e16, 1.0, 1.0)), Array(0.0, 0.0, 0.0))
    assert(f.columnMeans(Array(0, 1, 2)).head == ((1e16 + 1.0) + 1.0) / 3)
  }

  test("imputedRows gathers the given rows as row vectors, NaN replaced by the fill") {
    val rows = five.imputedRows(Array(1, 3, 4), Array(-1.0, -2.0))
    assert(rows.map(_.toSeq).toSeq == Seq(Seq(-1.0, -2.0), Seq(10.0, -2.0), Seq(-1.0, 7.0)))
  }

  test("imputedRows copies: the gather does not alias the columns") {
    val g = five.imputedRows(Array(2), Array(0.0, 0.0))
    g(0)(0) = 99.0
    assert(five.cols(0)(2) == 3.0)
  }

  test("label column is excluded from features even if listed") {
    val f = Frame.collect(df, "id", "y", Seq("id", "y", "a"))
    assert(f.names == Vector("a"))
  }

  test("row count mismatch is rejected") {
    intercept[IllegalArgumentException](Frame(Array(0L, 1L), Vector("a"), Array(Array(1.0)), Array(1.0, 2.0)))
  }
}
