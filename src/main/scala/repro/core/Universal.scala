package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.lake.{LakeTable, TabularLake}
import repro.ml.Frame
import repro.util.KMeans1D

/** The universal table D_U (Section 5.1 "Reduce-from-Universal"): the
  * multi-way join of all sources over the shared key, with per-segment-
  * attribute active-domain clustering (1-D k-means, Section 6). A reduct
  * literal masks one cluster: in the driver, [[combinations]] count and
  * select the rows it keeps; on the reference plan `df`, the clusters are
  * the hidden `__cl_<attr>` columns [[materialize]] filters on.
  *
  * The search's states and the baselines' outputs are evaluated in place
  * on [[driverCopy]], D_U as the build joins it in the driver from one
  * collect of each source (key, target and every layout attribute, in
  * `layout.attrs` order), as a [[project]]ion of its columns and a
  * state's [[rowIndices]]. The driver copy does not come from `df`: `df`
  * is the same join as a lazy Spark plan, and it and [[materialize]] are
  * the reference the oracle checks. `df` is not cached: each Spark job
  * over it re-runs the join.
  */
final case class UniversalTable(
    df: DataFrame,
    key: String,
    target: String,
    layout: BitLayout,
    clusterings: Map[String, KMeans1D.Clustering],
    driverCopy: Frame,
    combinations: Combinations,
) {
  def hiddenCol(segAttr: String): String = s"__cl_$segAttr"

  /** Materialize a state's dataset: key + target + kept attributes, rows
    * restricted to unmasked segment clusters. Hidden columns are dropped.
    */
  def materialize(s: State): DataFrame = {
    val attrs = layout.attrsOf(s)
    val cols = (key +: target +: attrs).map(col)
    df.filter(rowPredicate(s)).select(cols: _*)
  }

  /** Row predicate of a state over D_U (cluster membership per segment). */
  private[repro] def rowPredicate(s: State): Column =
    layout.segments.foldLeft(lit(true)) { case (acc, (seg, k)) =>
      val allowed = layout.clustersOf(s, seg)
      if (allowed.size == k) acc
      else if (allowed.isEmpty) acc && lit(false)
      else acc && col(hiddenCol(seg)).isin(allowed.toSeq: _*)
    }

  /** Which of D_U's cluster combinations a state keeps: those whose every
    * cluster it leaves unmasked.
    */
  private def kept(s: State): Array[Boolean] = {
    val ok = layout.segBits.iterator.map(bits => Array.tabulate(bits.size)(c => s(bits.start + c))).toArray
    combinations.clusters.map { cl =>
      var i = 0
      while (i < cl.length && ok(i)(cl(i))) i += 1
      i == cl.length
    }
  }

  /** Exact row count of a state's dataset: the rows of the combinations it
    * keeps (BiMODis' correlation-based pruning reads it as |D|).
    */
  def rowCount(s: State): Long = {
    val k = kept(s)
    var total = 0L
    var c = 0
    while (c < k.length) { if (k(c)) total += combinations.counts(c); c += 1 }
    total
  }

  /** Indices into [[driverCopy]] of a state's rows, in key order: the
    * driver-side twin of [[materialize]]'s row filter.
    */
  def rowIndices(s: State): Array[Int] = {
    val k = kept(s)
    val ofRow = combinations.ofRow
    val out = new Array[Int](ofRow.length)
    var m = 0
    var r = 0
    while (r < ofRow.length) {
      if (k(ofRow(r))) { out(m) = r; m += 1 }
      r += 1
    }
    java.util.Arrays.copyOf(out, m)
  }

  /** The listed attributes of [[driverCopy]], sharing its keys, target and
    * columns: on a state's [[rowIndices]], what `Frame.collect` gives for
    * `materialize(s)`, with no copy and no Spark job.
    */
  def project(attrs: Seq[String]): Frame =
    driverCopy.copy(names = attrs.toVector, cols = attrs.map(a => driverCopy.cols(layout.attrIdx(a))).toArray)
}

/** The cluster combinations D_U's rows hold, numbered in order of first
  * appearance in key order: combination `c` has cluster id `clusters(c)(i)`
  * for segment attribute `i` (`layout.segAttrs` order) and `counts(c)` rows,
  * and row `r` of the driver copy holds combination `ofRow(r)`. The driver
  * assigns the ids; they equal the `__cl_*` values Spark computes. With no
  * segment attribute, every row holds the one empty combination.
  */
final case class Combinations(clusters: Array[Array[Int]], counts: Array[Long], ofRow: Array[Int])

object Universal {

  /** Most literals a segment attribute's active domain is clustered into. */
  val MaxK = 6

  /** Build D_U for a tabular lake: left-outer join every aux table onto the
    * base over the key (preserving every labelled row — the supervised
    * variant of the paper's outer-join universal table) in the driver
    * ([[join]]), and cluster each segment attribute's active domain there
    * into at most [[MaxK]] literals. Key order makes the clusters a pure
    * function of the lake, whatever Spark's partitioning. `df` is the same
    * join as a lazy Spark plan, the reference the oracle checks; the build
    * runs no job over it.
    */
  def build(lake: TabularLake): UniversalTable = {
    val f = join(lake)
    val attrs = f.names

    val segAttrs = lake.segmentAttrs.toVector
    val clusterings = segAttrs.map { a =>
      val v = f.cols(attrs.indexOf(a))
      // the join reads null as NaN; neither has a cluster
      require(!v.exists(_.isNaN), s"segment attribute $a has nulls or NaN in D_U; no cluster covers them")
      a -> KMeans1D.fit(v, MaxK)
    }.toMap
    val segCols = segAttrs.map(a => (f.cols(attrs.indexOf(a)), clusterings(a)))
    val rowIds = Array.tabulate(f.nRows)(r => segCols.map { case (v, cl) => cl.assign(v(r)) })
    val held = rowIds.distinct
    val ofRow = rowIds.map(held.zipWithIndex.toMap)
    val counts = new Array[Long](held.length)
    ofRow.foreach(counts(_) += 1)

    var df = lake.base.df
    for (t <- lake.aux) df = df.join(t.df, Seq(lake.key), "left_outer")
    // hidden cluster-id columns via boundary CASE chains (pure Catalyst)
    for (a <- segAttrs) {
      val cl = clusterings(a)
      val expr = cl.boundaries.zipWithIndex.foldRight(lit(cl.k - 1): Column) {
        case ((b, i), acc) => when(col(a) <= b, i).otherwise(acc)
      }
      df = df.withColumn(s"__cl_$a", expr.cast("int"))
    }

    val layout = BitLayout(attrs, segAttrs.map(a => a -> clusterings(a).k))
    UniversalTable(df, lake.key, lake.target, layout, clusterings, f,
      Combinations(held.map(_.toArray), counts, ofRow))
  }

  /** D_U in the driver: each source collected once (a plain scan, no Spark
    * join or shuffle), the base through [[Frame.collect]] in key order,
    * and each aux table's cells looked up by key, NaN where it has no row.
    * It is the `Frame` that `Frame.collect` makes of the Spark left-outer
    * join: the same keys, names (the base's attributes, then each aux
    * table's, in lake order) and cells. A key twice in one source, or a
    * non-key column in two sources, is an error naming the table and the
    * column: a join would repeat the key's rows, or could not tell the
    * columns apart. So is a base row with a null key, which has no place
    * in key order, or with a null or NaN label, which would make every
    * regression metric NaN.
    */
  private def join(lake: TabularLake): Frame = {
    val key = lake.key
    val owner = scala.collection.mutable.Map.empty[String, String]
    for (t <- lake.allSources; c <- t.df.columns if c != key)
      owner.put(c, t.name).foreach(o =>
        throw new IllegalArgumentException(s"column $c is in both $o and ${t.name}; D_U takes each non-key column from one source"))
    def duplicate(t: LakeTable, k: Long) =
      new IllegalArgumentException(s"table ${t.name} has duplicate $key value $k; D_U needs one row per key")

    val base =
      try Frame.collect(lake.base.df, key, lake.target, lake.attrsOf(lake.base))
      catch { case e: IllegalArgumentException => throw new IllegalArgumentException(s"table ${lake.base.name}: ${e.getMessage}", e) }
    val keys = base.keys
    // unique keys make key order total, so it is the order TabularTask.evaluate(df) sorts to
    for (i <- 1 until keys.length if keys(i - 1) == keys(i)) throw duplicate(lake.base, keys(i))
    for (i <- keys.indices if base.y(i).isNaN) throw new IllegalArgumentException(
      s"table ${lake.base.name} has a null or NaN ${lake.target} at $key value ${keys(i)}; D_U needs a label in every row")
    val cols = base.cols ++ lake.aux.flatMap { t =>
      val attrs = lake.attrsOf(t)
      val byKey = scala.collection.mutable.LongMap.empty[Row]
      // a null key matches no base row, as in the join
      for (r <- t.df.select((key +: attrs).map(col): _*).collect() if !r.isNullAt(0))
        if (byKey.put(r.getLong(0), r).isDefined) throw duplicate(t, r.getLong(0))
      val matched = keys.map(byKey.getOrNull)
      attrs.indices.map(j => matched.map(r => if (r == null) Double.NaN else Frame.doubleAt(r, j + 1)))
    }
    Frame(keys, lake.featureAttrs.toVector, cols, base.y)
  }
}
