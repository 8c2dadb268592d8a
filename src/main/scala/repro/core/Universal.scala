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
  * on [[driverCopy]], D_U collected into the driver once at build, as a
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
    driverCopy: DriverCopy,
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

  /** Row counts per combination of cluster ids (one per segment attribute,
    * in layout.segAttrs order): a driver-side contingency table giving any
    * state's row count for free (used by BiMODis' correlation-based pruning).
    */
  lazy val segCounts: Map[Vector[Int], Long] =
    driverCopy.keys.indices.groupMapReduce(r => driverCopy.clusterIds.map(_(r)).toVector)(_ => 1L)(_ + _)

  private lazy val combos: Array[(Array[Int], Long)] =
    segCounts.iterator.map { case (combo, c) => (combo.toArray, c) }.toArray

  /** One allowed-cluster mask per segment attribute (layout.segAttrs order). */
  private def allowed(s: State): Array[Array[Boolean]] =
    layout.segBits.iterator.map(bits => Array.tabulate(bits.size)(c => s(bits.start + c))).toArray

  /** Exact row count of a state's dataset, from the contingency table. */
  def rowCount(s: State): Long = {
    val ok = allowed(s)
    var total = 0L
    for ((combo, c) <- combos) {
      var i = 0
      while (i < ok.length && ok(i)(combo(i))) i += 1
      if (i == ok.length) total += c
    }
    total
  }

  /** Indices into [[driverCopy]] of a state's rows, in key order: the
    * driver-side twin of [[rowPredicate]].
    */
  def rowIndices(s: State): Array[Int] = {
    val ok = allowed(s)
    val ids = driverCopy.clusterIds
    val n = driverCopy.keys.length
    val out = new Array[Int](n)
    var m = 0
    var r = 0
    while (r < n) {
      var i = 0
      while (i < ok.length && ok(i)(ids(i)(r))) i += 1
      if (i == ok.length) { out(m) = r; m += 1 }
      r += 1
    }
    java.util.Arrays.copyOf(out, m)
  }

  /** The listed attributes and the target of [[driverCopy]], as references
    * to its columns: on a state's [[rowIndices]], what `Frame.collect` gives
    * for `materialize(s)`, with no copy and no Spark job.
    */
  def project(attrs: Seq[String]): Frame =
    Frame(attrs.toVector, attrs.map(a => driverCopy.attrs(layout.attrIdx(a))).toArray, driverCopy.target)
}

/** D_U collected into the driver, one array per column, rows in key order:
  * the key and target, each layout attribute (NaN for null) by
  * `layout.attrs` index, and each segment attribute's cluster ids by
  * `layout.segAttrs` index. The ids are assigned in the driver from the
  * clusterings; they equal the `__cl_*` values Spark computes.
  */
final case class DriverCopy(keys: Array[Long], target: Array[Double],
                            attrs: Array[Array[Double]], clusterIds: Array[Array[Int]])

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

    val attrs = lake.featureAttrs.toVector
    val (keys, f) = Frame.collect(df, lake.key, lake.target, attrs)
    // unique keys make key order total, so it is the order TabularTask.evaluate(df) sorts to
    require((1 until keys.length).forall(i => keys(i - 1) < keys(i)), s"D_U has duplicate ${lake.key} values")

    val segAttrs = lake.segmentAttrs.toVector
    val clusterings = segAttrs.map { a =>
      val v = f.cols(attrs.indexOf(a))
      // Frame.collect reads null as NaN; neither has a cluster
      require(!v.exists(_.isNaN), s"segment attribute $a has nulls or NaN in D_U; no cluster covers them")
      a -> KMeans1D.fit(v, MaxK)
    }.toMap
    val ids = segAttrs.map(a => f.cols(attrs.indexOf(a)).map(clusterings(a).assign)).toArray

    // hidden cluster-id columns via boundary CASE chains (pure Catalyst)
    for (a <- segAttrs) {
      val cl = clusterings(a)
      val expr = cl.boundaries.zipWithIndex.foldRight(lit(cl.k - 1): Column) {
        case ((b, i), acc) => when(col(a) <= b, i).otherwise(acc)
      }
      df = df.withColumn(s"__cl_$a", expr.cast("int"))
    }

    val layout = BitLayout(attrs, segAttrs.map(a => a -> clusterings(a).k))
    UniversalTable(df, lake.key, lake.target, layout, clusterings, DriverCopy(keys, f.y, f.cols, ids))
  }
}
