package repro.graph

import scala.util.Random

/** LightGCN-lite (He et al., SIGIR'20) — the T5 substrate: user/item
  * embeddings propagated over the symmetric-normalized bipartite adjacency
  * for L layers (layer-averaged), trained with BPR-style SGD on the included
  * edges. Fully deterministic given the seed.
  *
  * Optional node features contribute to the initial item/user embeddings via
  * a fixed seeded random projection — selecting feature groups is how T5's
  * attribute bits influence the model.
  */
final class LightGCN(
    val nUsers: Int,
    val nItems: Int,
    val epochs: Int,
    val seed: Long = 23,
) {
  import LightGCN._

  private var userEmb: Array[Array[Double]] = _
  private var itemEmb: Array[Array[Double]] = _
  private var userOut: Array[Array[Double]] = _
  private var itemOut: Array[Array[Double]] = _
  private var trainedEdges: Set[(Int, Int)] = Set.empty

  /** Fit on the given edge set. `userFeat`/`itemFeat` (optional) seed the
    * initial embeddings through a fixed random projection.
    */
  def fit(edges: Seq[(Int, Int)],
          userFeat: Array[Array[Double]] = null,
          itemFeat: Array[Array[Double]] = null): this.type = {
    val rng = new Random(seed)
    userEmb = Array.fill(nUsers)(Array.fill(Dim)(rng.nextGaussian() * 0.1))
    itemEmb = Array.fill(nItems)(Array.fill(Dim)(rng.nextGaussian() * 0.1))
    if (userFeat != null && userFeat.nonEmpty && userFeat(0).nonEmpty)
      addProjected(userEmb, userFeat, new Random(seed + 1))
    if (itemFeat != null && itemFeat.nonEmpty && itemFeat(0).nonEmpty)
      addProjected(itemEmb, itemFeat, new Random(seed + 2))

    trainedEdges = edges.toSet
    val edgeArr = edges.toArray

    var ep = 0
    while (ep < epochs) {
      propagate(edges)
      // BPR: for each positive edge, sample a negative item (seeded)
      val epochRng = new Random(seed + 100 + ep)
      var e = 0
      while (e < edgeArr.length) {
        val (u, ip) = edgeArr(e)
        var in = epochRng.nextInt(nItems)
        var guard = 0
        while (trainedEdges.contains((u, in)) && guard < 10) { in = epochRng.nextInt(nItems); guard += 1 }
        val xupos = dot(userOut(u), itemOut(ip))
        val xuneg = dot(userOut(u), itemOut(in))
        val g = sigmoid(-(xupos - xuneg)) // d/dx of softplus(-(x))
        var k = 0
        while (k < Dim) {
          val du = g * (itemOut(ip)(k) - itemOut(in)(k))
          val dip = g * userOut(u)(k)
          val din = -g * userOut(u)(k)
          userEmb(u)(k) += Lr * (du - Reg * userEmb(u)(k))
          itemEmb(ip)(k) += Lr * (dip - Reg * itemEmb(ip)(k))
          itemEmb(in)(k) += Lr * (din - Reg * itemEmb(in)(k))
          k += 1
        }
        e += 1
      }
      ep += 1
    }
    propagate(edges)
    this
  }

  /** Layer-averaged propagation through D^{-1/2} A D^{-1/2}. */
  private def propagate(edges: Seq[(Int, Int)]): Unit = {
    val du = new Array[Double](nUsers)
    val di = new Array[Double](nItems)
    edges.foreach { case (u, i) => du(u) += 1; di(i) += 1 }
    var uCur = userEmb.map(_.clone)
    var iCur = itemEmb.map(_.clone)
    val uSum = userEmb.map(_.clone)
    val iSum = itemEmb.map(_.clone)
    var l = 0
    while (l < Layers) {
      val uNext = Array.fill(nUsers)(new Array[Double](Dim))
      val iNext = Array.fill(nItems)(new Array[Double](Dim))
      edges.foreach { case (u, i) =>
        val w = 1.0 / math.sqrt(math.max(1.0, du(u)) * math.max(1.0, di(i)))
        var k = 0
        while (k < Dim) {
          uNext(u)(k) += w * iCur(i)(k)
          iNext(i)(k) += w * uCur(u)(k)
          k += 1
        }
      }
      uCur = uNext; iCur = iNext
      for (u <- 0 until nUsers; k <- 0 until Dim) uSum(u)(k) += uCur(u)(k)
      for (i <- 0 until nItems; k <- 0 until Dim) iSum(i)(k) += iCur(i)(k)
      l += 1
    }
    val denom = (Layers + 1).toDouble
    userOut = uSum.map(_.map(_ / denom))
    itemOut = iSum.map(_.map(_ / denom))
  }

  /** Ranked top-k item recommendations per user, excluding training edges. */
  def recommend(k: Int): Map[Int, Seq[Int]] =
    (0 until nUsers).map { u =>
      val scored = (0 until nItems)
        .filterNot(i => trainedEdges.contains((u, i)))
        .map(i => (i, dot(userOut(u), itemOut(i))))
        .sortBy { case (i, s) => (-s, i) }
        .take(k).map(_._1)
      u -> scored
    }.toMap

  private def addProjected(emb: Array[Array[Double]], feat: Array[Array[Double]],
                           rng: Random): Unit = {
    val fDim = feat(0).length
    val proj = Array.fill(fDim)(Array.fill(Dim)(rng.nextGaussian() / math.sqrt(fDim)))
    for (n <- emb.indices; k <- 0 until Dim) {
      var s = 0.0
      var f = 0
      while (f < fDim) { s += feat(n)(f) * proj(f)(k); f += 1 }
      emb(n)(k) += 0.1 * s
    }
  }

  private def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var k = 0
    while (k < a.length) { s += a(k) * b(k); k += 1 }
    s
  }

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))
}

object LightGCN {
  // embedding width, propagation layers, SGD step and L2 weight
  private final val Dim = 16
  private final val Layers = 2
  private final val Lr = 0.05
  private final val Reg = 1e-4
}
