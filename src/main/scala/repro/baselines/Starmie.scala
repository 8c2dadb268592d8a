package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.lake.{LakeTable, TabularLake}
import repro.ml.Frame
import repro.util.Stats

/** Starmie [Fan et al., VLDB'23] stand-in — table-union/join search by
  * column-content similarity, *without* model feedback. The original uses
  * contrastive column embeddings; we sketch each numeric column as a
  * quantile histogram + moments and rank candidate tables by their best
  * column-to-column cosine similarity against the query (base) table,
  * joining every candidate above a similarity threshold. This preserves the
  * behaviour the paper's comparison relies on: Starmie augments aggressively
  * on content similarity and so inherits noise columns too.
  */
object Starmie {

  val Bins = 10

  /** Sketch of one column's values: normalized quantile histogram ++ scaled moments. */
  def columnSketch(vals: Array[Double]): Array[Double] = {
    if (vals.isEmpty) return new Array[Double](Bins + 2)
    val sorted = vals.sorted
    def q(p: Double): Double = sorted(((sorted.length - 1) * p).toInt)
    val lo = q(0.01); val hi = q(0.99)
    val width = math.max(hi - lo, 1e-9)
    val hist = new Array[Double](Bins)
    vals.foreach { v =>
      val b = math.min(Bins - 1, math.max(0, ((v - lo) / width * Bins).toInt))
      hist(b) += 1.0
    }
    val n = vals.length.toDouble
    val m = Stats.mean(vals)
    val sd = math.sqrt(Stats.variance(vals))
    hist.map(_ / n) ++ Array(m / (math.abs(m) + sd + 1e-9), sd / (sd + math.abs(m) + 1e-9))
  }

  /** Each column's sketch but `skip`'s, from one collect of the table: cells
    * read as [[Frame]] reads them (null as NaN), NaN dropped per column.
    */
  private def sketches(df: DataFrame, skip: Set[String]): Array[Array[Double]] = {
    val rows = df.collect()
    df.columns.zipWithIndex.collect { case (c, j) if !skip.contains(c) =>
      columnSketch(rows.map(Frame.doubleAt(_, j)).filterNot(_.isNaN))
    }
  }

  private def bestCosine(aS: Array[Array[Double]], bS: Array[Array[Double]]): Double =
    if (aS.isEmpty || bS.isEmpty) 0.0 else aS.flatMap(sa => bS.map(sb => Stats.cosine(sa, sb))).max

  /** Rank candidates by similarity to the base table, sketched once; join
    * every joinable candidate with similarity ≥ `threshold`. Returns the
    * joined table's attributes: the base's, then each joined table's in
    * join order.
    */
  def run(lake: TabularLake, threshold: Double = 0.5): Vector[String] = {
    val skip = Set(lake.key, lake.target)
    val base = sketches(lake.base.df, skip)
    val ranked: Seq[(LakeTable, Double)] =
      (lake.aux ++ lake.distractors).map(t => t -> bestCosine(base, sketches(t.df, skip))).sortBy(-_._2)
    lake.attrsOf(lake.base) ++ ranked.flatMap { case (t, sim) =>
      if (sim >= threshold && t.df.columns.contains(lake.key)) lake.attrsOf(t) else Nil
    }
  }
}
