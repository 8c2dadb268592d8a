package repro.ml

import org.apache.spark.sql.{DataFrame, Row}

/** A small in-driver feature matrix with a label column — the shape every
  * model in the paper's evaluation trains on (their pipeline collects the
  * discovered table into pandas/sklearn; ours collects the materialized
  * Spark DataFrame).
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

  /** Project to a subset of columns (by name). */
  def select(keep: Seq[String]): Frame = {
    val idx = keep.map(names.indexOf).toArray
    require(idx.forall(_ >= 0), s"Frame.select: unknown column in $keep")
    Frame(keep.toVector, x.map(r => idx.map(r)), y)
  }

  /** Row subset by predicate on index. */
  def filterRows(p: Int => Boolean): Frame = {
    val keep = (0 until nRows).filter(p).toArray
    Frame(names, keep.map(x), keep.map(y))
  }
}

object Frame {

  /** Collect a Spark DataFrame into a Frame. `label` must exist; every other
    * listed feature column is converted to Double (null → NaN).
    */
  def fromDataFrame(df: DataFrame, label: String, features: Seq[String]): Frame = {
    val cols = features.filterNot(_ == label)
    val rows = df.select((label +: cols).map(org.apache.spark.sql.functions.col): _*).collect()
    val y = new Array[Double](rows.length)
    val x = new Array[Array[Double]](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      y(i) = doubleAt(r, 0)
      val xi = new Array[Double](cols.length)
      var j = 0
      while (j < cols.length) { xi(j) = doubleAt(r, j + 1); j += 1 }
      x(i) = xi
      i += 1
    }
    Frame(cols.toVector, x, y)
  }

  /** Cell `i` of a collected row as a Double, null as NaN: the one
    * conversion every driver-side collect uses.
    */
  def doubleAt(r: Row, i: Int): Double = r.get(i) match {
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
