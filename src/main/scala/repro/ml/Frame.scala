package repro.ml

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col

/** A small in-driver feature matrix with a label column — the shape every
  * model in the paper's evaluation trains on (their pipeline collects the
  * discovered table into pandas/sklearn; ours collects it with
  * [[Frame.collect]] or cuts it from the driver copy of D_U).
  *
  * Missing values (nulls from outer joins) arrive as NaN and are
  * mean-imputed by [[Frame.imputed]] before training.
  */
final case class Frame(names: Vector[String], x: Array[Array[Double]], y: Array[Double]) {
  require(x.length == y.length, "Frame: row count mismatch")
  def nRows: Int = x.length
  def nCols: Int = names.length

  /** Column means ignoring NaN (0.0 for all-NaN columns). */
  def columnMeans: Array[Double] = {
    val sums = new Array[Double](nCols)
    val cnts = new Array[Long](nCols)
    var i = 0
    while (i < nRows) {
      var j = 0
      while (j < nCols) {
        val v = x(i)(j)
        if (!v.isNaN) { sums(j) += v; cnts(j) += 1 }
        j += 1
      }
      i += 1
    }
    Array.tabulate(nCols)(j => if (cnts(j) == 0) 0.0 else sums(j) / cnts(j))
  }

  /** Replace NaN cells with the given per-column fill values. */
  def imputed(fill: Array[Double]): Frame = {
    val nx = Array.tabulate(nRows) { i =>
      Array.tabulate(nCols) { j =>
        val v = x(i)(j)
        if (v.isNaN) fill(j) else v
      }
    }
    copy(x = nx)
  }
}

object Frame {

  /** Collect a table into the driver, rows sorted by `key`: the keys, and a
    * Frame of `label` and the listed features (null → NaN; `key` and
    * `label` are never features). This is the one path from a table to a
    * feature matrix. Key order makes every fit on the result independent of
    * Spark's partitioning.
    */
  def collect(df: DataFrame, key: String, label: String, features: Seq[String]): (Array[Long], Frame) = {
    val cols = features.filterNot(c => c == key || c == label).toVector
    val rows = df.select((key +: label +: cols).map(col): _*).collect().sortBy(_.getLong(0))
    (rows.map(_.getLong(0)),
      Frame(cols, rows.map(r => Array.tabulate(cols.length)(j => doubleAt(r, j + 2))), rows.map(doubleAt(_, 1))))
  }

  /** Cell `i` of a collected row as a Double, null as NaN. */
  private[repro] def doubleAt(r: Row, i: Int): Double = r.get(i) match {
    case null                 => Double.NaN
    case d: Double            => d
    case f: Float             => f.toDouble
    case l: Long              => l.toDouble
    case i: Int               => i.toDouble
    case s: Short             => s.toDouble
    case b: Byte              => b.toDouble
    case b: Boolean           => if (b) 1.0 else 0.0
    case bd: java.math.BigDecimal => bd.doubleValue
    case s: String            => try s.toDouble catch { case _: NumberFormatException => Double.NaN }
    case other                => throw new IllegalArgumentException(s"non-numeric cell: $other")
  }
}
