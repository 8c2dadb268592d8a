package repro.graph

import repro.core._
import repro.lake.GraphLake
import repro.ml.Metrics

/** T5 state space: attribute bits select node-feature groups, cluster bits
  * select edge clusters ("augment/reduct operators are edge insertions/
  * deletions", Section 6). Evaluation trains LightGCN-lite on the included
  * edges and scores ranking quality against the fixed held-out positives.
  */
final class GraphSpace(val lake: GraphLake, val epochs: Int = 20) extends StateSpace {

  override val layout: BitLayout = BitLayout(
    attrs = lake.featureGroups,
    segments = Vector("edge" -> lake.nEdgeClusters))

  /** Search measures: P5 restricted to one of each family (P@5, R@10,
    * NDCG@10, as Table 3's p_Pc(n)/p_Rc(n)/p_Nc(n)); all six are reported.
    */
  override val measures: Vector[Measure] =
    Vector(Measure("pc5"), Measure("rc10"), Measure("nc10"))

  private val clusterSizes: Map[Int, Long] =
    lake.edges.groupBy(_._3).map { case (c, es) => c -> es.size.toLong }

  /** Graph states may keep zero feature groups (LightGCN runs on free
    * embeddings alone), but need at least one edge cluster.
    */
  override def admissible(s: State): Boolean =
    layout.segBits.forall(_.exists(s(_)))

  /** BackSt from the first feature group. */
  override lazy val backStart: State = backStartFrom(lake.featureGroups.take(1))

  override def evaluate(s: State): Option[EvalResult] = cached(s) {
    val clusters = layout.clustersOf(s, "edge")
    val edges = lake.edges.collect { case (u, i, c) if clusters.contains(c) => (u, i) }
    if (edges.size < minRows) None
    else {
      val groups = layout.attrsOf(s)
      val (uf, itf) = lake.featuresOf(groups)
      val t0 = System.nanoTime()
      val model = new LightGCN(lake.nUsers, lake.nItems, epochs = epochs).fit(edges, uf, itf)
      val trainSec = (System.nanoTime() - t0) / 1e9
      val recs = model.recommend(10)
      val truth = lake.testEdges
      val raw = Map(
        "pc5" -> Metrics.precisionAtK(recs, truth, 5),
        "pc10" -> Metrics.precisionAtK(recs, truth, 10),
        "rc5" -> Metrics.recallAtK(recs, truth, 5),
        "rc10" -> Metrics.recallAtK(recs, truth, 10),
        "nc5" -> Metrics.ndcgAtK(recs, truth, 5),
        "nc10" -> Metrics.ndcgAtK(recs, truth, 10),
        "train" -> trainSec)
      val norm = measures.map(m => repro.util.Stats.clip(1.0 - raw(m.name), 1e-3, 1.0)).toArray
      val cols = groups.map(g => lake.userFeatures(g)(0).length).sum
      Some(EvalResult(raw, norm, rows = edges.size, cols = cols))
    }
  }

  /** LightGCN needs 50 edges to train on. */
  override def minRows: Int = 50

  override def rowCountEstimate(s: State): Long =
    layout.clustersOf(s, "edge").toSeq.map(c => clusterSizes.getOrElse(c, 0L)).sum
}
