package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.lake.TabularLake
import repro.ml.Frame
import repro.util.KMeans1D

/** The universal table D_U (Section 5.1 "Reduce-from-Universal"): the
  * multi-way join of all sources over the shared key, with per-segment-
  * attribute active-domain clustering (1-D k-means, Section 6) materialized
  * as hidden `__cl_<attr>` columns so reduct literals become cheap cluster
  * filters.
  *
  * The search's states and the baselines' outputs are evaluated in place
  * on [[driverCopy]], D_U collected into the driver once at build (key,
  * target and every layout attribute, in `layout.attrs` order), as a
  * [[project]]ion of its columns and a state's [[rowIndices]];
  * [[materialize]] stays the Spark reference the oracle checks. `df` is
  * not cached: each Spark job over it re-runs the join.
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
  def rowPredicate(s: State): Column =
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
    * driver-side twin of [[rowPredicate]].
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
    * variant of the paper's outer-join universal table), collect it into the
    * driver once in key order, and cluster each segment attribute's active
    * domain there into at most [[MaxK]] literals. Key order makes the
    * clusters a pure function of the lake, whatever Spark's partitioning.
    */
  def build(lake: TabularLake): UniversalTable = {
    var df = lake.base.df
    for (t <- lake.aux) df = df.join(t.df, Seq(lake.key), "left_outer")

    val f = Frame.collect(df, lake.key, lake.target, lake.featureAttrs)
    val (attrs, keys) = (f.names, f.keys)
    // unique keys make key order total, so it is the order TabularTask.evaluate(df) sorts to
    require((1 until keys.length).forall(i => keys(i - 1) < keys(i)), s"D_U has duplicate ${lake.key} values")

    val segAttrs = lake.segmentAttrs.toVector
    val clusterings = segAttrs.map { a =>
      val v = f.cols(attrs.indexOf(a))
      // Frame.collect reads null as NaN; neither has a cluster
      require(!v.exists(_.isNaN), s"segment attribute $a has nulls or NaN in D_U; no cluster covers them")
      a -> KMeans1D.fit(v, MaxK)
    }.toMap
    val segCols = segAttrs.map(a => (f.cols(attrs.indexOf(a)), clusterings(a)))
    val rowIds = Array.tabulate(f.nRows)(r => segCols.map { case (v, cl) => cl.assign(v(r)) })
    val held = rowIds.distinct
    val ofRow = rowIds.map(held.zipWithIndex.toMap)
    val counts = new Array[Long](held.length)
    ofRow.foreach(counts(_) += 1)

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
}
