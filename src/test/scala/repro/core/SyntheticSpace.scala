package repro.core

/** Closed-form state space for algorithm unit tests: no Spark, no ML.
  *
  * Attributes a0..a3 are informative (dropping them raises err), a4..a5 are
  * noise (keeping them raises err). One segment attribute with clusters of
  * sizes 50/30/20; cluster 0 carries label noise (keeping it raises err).
  * Cost grows with the kept fraction of rows × columns. This mirrors the
  * accuracy/training-cost trade-off the real tasks exhibit.
  */
final class SyntheticSpace(
    val measuresOverride: Option[Vector[Measure]] = None,
) extends StateSpace {

  override val layout: BitLayout = BitLayout(
    attrs = Vector("a0", "a1", "a2", "a3", "a4", "a5"),
    segments = Vector("seg" -> 3))

  private val clusterSizes = Map(0 -> 50L, 1 -> 30L, 2 -> 20L)

  override def measures: Vector[Measure] =
    measuresOverride.getOrElse(Vector(Measure("err"), Measure("cost")))

  override lazy val backStart: State = {
    var s = State.empty(layout.width)
    s = s.set(layout.attrIdx("a0")).set(layout.attrIdx("a1"))
    s.set(layout.clusterIdx("seg", 1))
  }

  override def minRows: Int = 20

  override def rowCountEstimate(s: State): Long =
    layout.clustersOf(s, "seg").toSeq.map(clusterSizes).sum

  def perf(s: State): Array[Double] = {
    val attrs = layout.attrsOf(s).toSet
    val infDropped = Seq("a0", "a1", "a2", "a3").count(!attrs.contains(_))
    val noiseKept = Seq("a4", "a5").count(attrs.contains)
    val noisyClusterKept = if (layout.clustersOf(s, "seg").contains(0)) 1 else 0
    val rowFrac = rowCountEstimate(s).toDouble / 100.0
    val colFrac = attrs.size / 6.0
    val err = 0.10 + 0.12 * infDropped + 0.04 * noiseKept + 0.20 * noisyClusterKept
    val cost = 0.05 + 0.90 * rowFrac * colFrac
    Array(math.min(1.0, err), math.min(1.0, cost))
  }

  override def evaluate(s: State): Option[EvalResult] = {
    if (!admissible(s)) return None
    if (rowCountEstimate(s) < minRows) return None
    val p = perf(s)
    Some(EvalResult(Map("err" -> p(0), "cost" -> p(1)), p,
      rows = rowCountEstimate(s).toInt, cols = layout.attrsOf(s).size))
  }
}
