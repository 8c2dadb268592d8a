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
    val (keys, f) = Frame.collect(df, "id", "y", Seq("a", "b"))
    assert(f.nRows == 3 && f.nCols == 2)
    assert(keys.toSeq == Seq(1L, 2L, 3L))
    assert(f.y.toSeq == Seq(1.0, 0.0, 1.0))
    assert(f.x.map(_(0)).toSeq == Seq(2.0, 4.0, 6.0))
  }

  test("nulls become NaN") {
    val (_, f) = Frame.collect(df, "id", "y", Seq("a", "b"))
    assert(f.x(1)(1).isNaN)
  }

  test("columnMeans ignores NaN") {
    val (_, f) = Frame.collect(df, "id", "y", Seq("a", "b"))
    val means = f.columnMeans
    assert(math.abs(means(0) - 4.0) < 1e-9)
    assert(math.abs(means(1) - 6.0) < 1e-9)
  }

  test("imputed replaces NaN with fill values") {
    val (_, f) = Frame.collect(df, "id", "y", Seq("a", "b"))
    val g = f.imputed(f.columnMeans)
    assert(!g.x.exists(_.exists(_.isNaN)))
  }

  test("columnMeans of all-NaN column is 0") {
    val f = Frame(Vector("c"), Array(Array(Double.NaN), Array(Double.NaN)), Array(1.0, 2.0))
    assert(f.columnMeans.toSeq == Seq(0.0))
  }

  test("label column is excluded from features even if listed") {
    val (_, f) = Frame.collect(df, "id", "y", Seq("id", "y", "a"))
    assert(f.names == Vector("a"))
  }

  test("row count mismatch is rejected") {
    intercept[IllegalArgumentException](Frame(Vector("a"), Array(Array(1.0)), Array(1.0, 2.0)))
  }
}
