package repro.lake

import scala.util.Random

/** T5's data: a bipartite user–item interaction graph assembled from a
  * latent-factor ground truth. Signal edges connect users to their truly
  * best-affinity items; noise edges are random. Edges are k-means-style
  * clustered (the paper clusters edges, k=13) — here clusters group signal
  * edges by item block, with dedicated noise clusters, so reduct = drop an
  * edge cluster and augment = insert one. Node features are noisy
  * projections of the latent factors (informative groups) plus pure-noise
  * groups, bundled into feature groups (the paper reduces 34 features to 10
  * groups).
  */
final case class GraphLake(
    nUsers: Int,
    nItems: Int,
    /** (user, item, clusterId) for every edge in the pool */
    edges: Vector[(Int, Int, Int)],
    /** held-out positives per user (never in any training state) */
    testEdges: Map[Int, Set[Int]],
    nEdgeClusters: Int,
    /** clusters made of noise edges (ground truth, for tests) */
    noiseClusters: Set[Int],
    /** feature group name -> (userFeat columns, itemFeat columns) */
    featureGroups: Vector[String],
    userFeatures: Map[String, Array[Array[Double]]],
    itemFeatures: Map[String, Array[Array[Double]]],
) {
  def featuresOf(groups: Seq[String]): (Array[Array[Double]], Array[Array[Double]]) = {
    def cat(maps: Map[String, Array[Array[Double]]], n: Int): Array[Array[Double]] =
      Array.tabulate(n)(i => groups.flatMap(g => maps(g)(i)).toArray)
    (cat(userFeatures, nUsers), cat(itemFeatures, nItems))
  }
}

object GraphLake {

  /** Deterministic T5 lake. sf=0.1 ≈ the paper's (7925 edges, 34 features)
    * shape at reduced node counts.
    */
  def generate(sf: Double = 0.01, seed: Long = 505): GraphLake = {
    val rng = new Random(seed)
    val nUsers = math.max(30, (150 * math.sqrt(sf * 10)).toInt)
    val nItems = math.max(20, (80 * math.sqrt(sf * 10)).toInt)
    val latentDim = 8
    val pU = Array.fill(nUsers)(Array.fill(latentDim)(rng.nextGaussian()))
    val qI = Array.fill(nItems)(Array.fill(latentDim)(rng.nextGaussian()))

    def aff(u: Int, i: Int): Double = {
      var s = 0.0
      var k = 0
      while (k < latentDim) { s += pU(u)(k) * qI(i)(k); k += 1 }
      s
    }

    val signalClusters = 7
    val noiseClusterCount = 3
    val nEdgeClusters = signalClusters + noiseClusterCount
    val perUser = math.max(8, (30 * sf * 10).toInt)

    val train = Vector.newBuilder[(Int, Int, Int)]
    val test = scala.collection.mutable.Map.empty[Int, Set[Int]]
    for (u <- 0 until nUsers) {
      val top = (0 until nItems).sortBy(i => -aff(u, i)).take(perUser)
      val (held, kept) = top.splitAt(math.max(2, perUser * 3 / 10))
      test(u) = held.toSet
      kept.foreach(i => train += ((u, i, i % signalClusters)))
    }
    // noise edges: ~35% of the signal volume, uniformly random pairs
    val nNoise = (train.result().size * 0.35).toInt
    var added = 0
    val seen = scala.collection.mutable.Set.empty[(Int, Int)]
    train.result().foreach(e => seen += ((e._1, e._2)))
    while (added < nNoise) {
      val u = rng.nextInt(nUsers); val i = rng.nextInt(nItems)
      if (!seen.contains((u, i)) && !test(u).contains(i)) {
        seen += ((u, i))
        train += ((u, i, signalClusters + added % noiseClusterCount))
        added += 1
      }
    }

    // feature groups: 3 informative (noisy latent projections), 2 noise
    val groups = Vector("fg_lat1", "fg_lat2", "fg_lat3", "fg_noise1", "fg_noise2")
    def informative(lat: Array[Array[Double]], offset: Int, cols: Int, r: Random) =
      lat.map(v => Array.tabulate(cols)(c => v((offset + c) % latentDim) + r.nextGaussian() * 0.3))
    def noise(n: Int, cols: Int, r: Random) =
      Array.fill(n)(Array.fill(cols)(r.nextGaussian()))
    val gr = new Random(seed + 9)
    val userFeatures = Map(
      "fg_lat1" -> informative(pU, 0, 3, gr), "fg_lat2" -> informative(pU, 3, 3, gr),
      "fg_lat3" -> informative(pU, 6, 2, gr),
      "fg_noise1" -> noise(nUsers, 2, gr), "fg_noise2" -> noise(nUsers, 2, gr))
    val itemFeatures = Map(
      "fg_lat1" -> informative(qI, 0, 3, gr), "fg_lat2" -> informative(qI, 3, 3, gr),
      "fg_lat3" -> informative(qI, 6, 2, gr),
      "fg_noise1" -> noise(nItems, 2, gr), "fg_noise2" -> noise(nItems, 2, gr))

    GraphLake(nUsers, nItems, train.result(), test.toMap, nEdgeClusters,
      noiseClusters = (signalClusters until nEdgeClusters).toSet,
      featureGroups = groups, userFeatures = userFeatures, itemFeatures = itemFeatures)
  }
}
