package repro.ml

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col

/** A small in-driver table, column-major: the key column `keys`, one array
  * per feature and the label column `y`, all of `y`'s length. Every model
  * in the paper's evaluation trains on such a table (their pipeline
  * collects the discovered table into pandas/sklearn; ours collects it with
  * [[Frame.collect]], or reads a state's rows out of D_U's driver copy).
  *
  * Missing values (nulls from outer joins) arrive as NaN. A fit takes
  * [[columnMeans]] over its train rows and gathers its rows with
  * [[imputedRows]], the one copy of a dataset's cells before the fit.
  */
final case class Frame(keys: Array[Long], names: Vector[String], cols: Array[Array[Double]], y: Array[Double]) {
  require(keys.length == y.length && cols.length == names.length && cols.forall(_.length == y.length),
    "Frame: column length mismatch")
  def nRows: Int = y.length
  def nCols: Int = names.length

  /** Each column's mean over the given rows, summed in their order, ignoring
    * NaN (0.0 when every value is NaN).
    */
  def columnMeans(rows: Array[Int]): Array[Double] = cols.map { c =>
    var sum = 0.0
    var cnt = 0L
    var i = 0
    while (i < rows.length) {
      val v = c(rows(i))
      if (!v.isNaN) { sum += v; cnt += 1 }
      i += 1
    }
    if (cnt == 0) 0.0 else sum / cnt
  }

  /** The given rows as row vectors, each NaN cell replaced by its column's fill value. */
  def imputedRows(rows: Array[Int], fill: Array[Double]): Array[Array[Double]] = {
    val out = new Array[Array[Double]](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      val row = new Array[Double](nCols)
      var j = 0
      while (j < row.length) { val v = cols(j)(r); row(j) = if (v.isNaN) fill(j) else v; j += 1 }
      out(i) = row
      i += 1
    }
    out
  }
}

object Frame {

  /** Collect a table into the driver, rows sorted by `key`: a Frame of
    * `key`, `label` and the listed features (null → NaN; `key` and `label`
    * are never features). This is the one path from a table to a feature
    * matrix. Key order makes every fit on the result independent of Spark's
    * partitioning.
    */
  def collect(df: DataFrame, key: String, label: String, features: Seq[String]): Frame = {
    val cols = features.filterNot(c => c == key || c == label).toVector
    val rows = df.select((key +: label +: cols).map(col): _*).collect().sortBy(_.getLong(0))
    Frame(rows.map(_.getLong(0)), cols,
      Array.tabulate(cols.length)(j => rows.map(doubleAt(_, j + 2))), rows.map(doubleAt(_, 1)))
  }

  /** Cell `i` of a collected row as a Double, null as NaN. Lake tables
    * and D_U (but for its `__cl_*` columns) hold only Long and Double
    * cells; any other cell is an error naming it, never a silent NaN.
    */
  private[repro] def doubleAt(r: Row, i: Int): Double = r.get(i) match {
    case null      => Double.NaN
    case d: Double => d
    case l: Long   => l.toDouble
    case other     => throw new IllegalArgumentException(s"non-numeric cell: $other")
  }
}
