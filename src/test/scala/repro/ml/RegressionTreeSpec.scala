package repro.ml

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.util.Checkers
import scala.util.Random

class RegressionTreeSpec extends AnyFunSuite with Checkers {
  import RegressionTree.{Leaf, Node, Split}

  private def stepData(n: Int, seed: Int): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextDouble() * 10, rng.nextDouble()))
    val y = x.map(xi => if (xi(0) > 5) 10.0 else -10.0)
    (x, y)
  }

  test("learns a single-feature step function") {
    val (x, y) = stepData(200, 1)
    val t = new RegressionTree(maxDepth = 2, minLeaf = 5).fit(x, y)
    val preds = x.map(t.predict)
    assert(Metrics.mse(y, preds) < 1.0)
  }

  test("constant target yields a single leaf") {
    val x = Array.fill(50)(Array(Random.nextDouble()))
    val y = Array.fill(50)(3.0)
    val t = new RegressionTree().fit(x, y)
    assert(t.root.isInstanceOf[RegressionTree.Leaf])
    assert(t.predict(Array(0.5)) == 3.0)
  }

  test("depth-0 behaves as the mean predictor") {
    val (x, y) = stepData(100, 2)
    val t = new RegressionTree(maxDepth = 0).fit(x, y)
    val m = y.sum / y.length
    assert(math.abs(t.predict(x(0)) - m) < 1e-9)
  }

  test("minLeaf prevents tiny splits") {
    val x = Array.tabulate(10)(i => Array(i.toDouble))
    val y = x.map(_(0))
    val t = new RegressionTree(maxDepth = 10, minLeaf = 5).fit(x, y)
    // with minLeaf=5 and 10 points, at most one split
    def depth(n: RegressionTree.Node): Int = n match {
      case RegressionTree.Leaf(_)           => 0
      case RegressionTree.Split(_, _, l, r) => 1 + math.max(depth(l), depth(r))
    }
    assert(depth(t.root) <= 1)
  }

  test("splits on the informative feature") {
    val (x, y) = stepData(300, 3)
    val t = new RegressionTree(maxDepth = 3, minLeaf = 5).fit(x, y)
    val im = t.importances
    assert(im(0) > im(1))
  }

  test("importances length matches features") {
    val (x, y) = stepData(50, 4)
    val t = new RegressionTree().fit(x, y)
    assert(t.importances.length == 2)
  }

  test("deterministic given same data and rng seed") {
    val (x, y) = stepData(150, 5)
    val p1 = x.map(new RegressionTree(3, 5).fit(x, y, new Random(9)).predict).toSeq
    val p2 = x.map(new RegressionTree(3, 5).fit(x, y, new Random(9)).predict).toSeq
    assert(p1 == p2)
  }

  test("sample subset restricts training rows") {
    val (x, y) = stepData(100, 6)
    val left = Array.range(0, 50).filter(i => x(i)(0) <= 5)
    val t = new RegressionTree(2, 2).fit(x, y, new Random(0), RegressionTree.presort(x).sample(left))
    // trained only on the low side: predicts about -10 everywhere
    assert(math.abs(t.predict(Array(9.0, 0.5)) + 10.0) < 2.0)
  }

  test("predict before fit throws") {
    val t = new RegressionTree()
    intercept[IllegalStateException](t.predict(Array(1.0)))
  }

  test("rejects empty input") {
    intercept[IllegalArgumentException](
      new RegressionTree().fit(Array.empty[Array[Double]], Array.empty[Double]))
  }

  test("piecewise function needs depth: deeper tree fits better") {
    val rng = new Random(7)
    val x = Array.fill(400)(Array(rng.nextDouble() * 8))
    val y = x.map(xi => math.floor(xi(0)))
    val shallow = new RegressionTree(1, 2).fit(x, y)
    val deep = new RegressionTree(5, 2).fit(x, y)
    assert(Metrics.mse(y, x.map(deep.predict)) < Metrics.mse(y, x.map(shallow.predict)))
  }

  test("featuresPerSplit=1 on two features still fits with enough depth") {
    val (x, y) = stepData(300, 8)
    val t = new RegressionTree(maxDepth = 6, minLeaf = 5, featuresPerSplit = 1)
      .fit(x, y, new Random(3))
    assert(Metrics.mse(y, x.map(t.predict)) < 25.0)
  }

  /** Reference tree: re-sorts the node's rows at every node by the key the
    * presort uses, (float key of the value, row index). Returns the root and
    * importances.
    */
  private def referenceFit(x: Array[Array[Double]], y: Array[Double], rng: Random,
                           sample: Array[Int], maxDepth: Int, minLeaf: Int,
                           featuresPerSplit: Int): (Node, Array[Double]) = {
    val nFeat = x(0).length
    val imp = new Array[Double](nFeat)
    def grow(idx: Array[Int], depth: Int): Node = {
      val n = idx.length
      val sum = idx.foldLeft(0.0)((a, j) => a + y(j))
      val mean = sum / n
      if (depth >= maxDepth || n < 2 * minLeaf) return Leaf(mean)
      val sse = idx.foldLeft(0.0) { (a, j) => val d = y(j) - mean; a + d * d }
      if (sse <= 1e-12) return Leaf(mean)
      val cand =
        if (featuresPerSplit <= 0 || featuresPerSplit >= nFeat) Array.range(0, nFeat)
        else rng.shuffle((0 until nFeat).toList).take(featuresPerSplit).toArray
      var (bestGain, bestFeat, bestThr) = (0.0, -1, 0.0)
      for (f <- cand) {
        val sorted = idx.sortWith { (a, b) =>
          val (ka, kb) = (floatKey(x(a)(f)), floatKey(x(b)(f))); ka < kb || (ka == kb && a < b)
        }
        var leftSum = 0.0
        for (k <- 0 until n - 1) {
          leftSum += y(sorted(k))
          val (vHere, vNext) = (x(sorted(k))(f), x(sorted(k + 1))(f))
          if (vHere != vNext && k + 1 >= minLeaf && n - k - 1 >= minLeaf) {
            val (nl, rightSum) = (k + 1, sum - leftSum)
            val gain = leftSum * leftSum / nl + rightSum * rightSum / (n - nl) - sum * sum / n
            if (gain > bestGain + 1e-12) { bestGain = gain; bestFeat = f; bestThr = (vHere + vNext) / 2.0 }
          }
        }
      }
      if (bestFeat < 0) return Leaf(mean)
      imp(bestFeat) += bestGain
      val (l, r) = idx.partition(j => x(j)(bestFeat) <= bestThr)
      Split(bestFeat, bestThr, grow(l, depth + 1), grow(r, depth + 1))
    }
    (grow(sample, 0), imp)
  }

  private def floatKey(v: Double): Int = {
    val raw = java.lang.Float.floatToIntBits(v.toFloat)
    if (raw < 0) ~raw else raw ^ 0x80000000
  }

  /** A tree with every double as its bits, so string equality is bit equality. */
  private def bits(n: Node): String = n match {
    case Leaf(v)           => s"L${java.lang.Double.doubleToRawLongBits(v)}"
    case Split(f, t, l, r) => s"S($f,${java.lang.Double.doubleToRawLongBits(t)},${bits(l)},${bits(r)})"
  }

  /** Whether the presorted tree of `sample` (all rows when None) is the
    * reference tree, bit for bit, importances included.
    */
  private def matchesReference(x: Array[Array[Double]], y: Array[Double], sample: Option[Array[Int]],
                               maxDepth: Int, minLeaf: Int, featuresPerSplit: Int,
                               seed: Long): Boolean = {
    val all = RegressionTree.presort(x)
    val tree = new RegressionTree(maxDepth, minLeaf, featuresPerSplit)
      .fit(x, y, new Random(seed), sample.fold(all)(all.sample))
    val (root, imp) = referenceFit(x, y, new Random(seed), sample.getOrElse(Array.range(0, x.length)),
      maxDepth, minLeaf, featuresPerSplit)
    bits(tree.root) == bits(root) &&
      tree.importances.map(java.lang.Double.doubleToRawLongBits).sameElements(
        imp.map(java.lang.Double.doubleToRawLongBits))
  }

  test("presorted trees equal trees that re-sort at every node") {
    // few distinct levels per feature, including -0.0 vs 0.0 and two doubles
    // that share a float, so ties and near-ties are common
    val pool = Vector(-0.0, 0.0, 1.0, 1.0 + 1e-9, 2.5, -3.0, 7.25)
    val gen = for {
      n <- Gen.choose(1, 40)
      nFeat <- Gen.choose(1, 5)
      levels <- Gen.choose(1, pool.size)
      continuous <- Gen.oneOf(false, true)
      sampleKind <- Gen.choose(0, 2) // all rows, bootstrap, strict subset
      maxDepth <- Gen.choose(0, 5)
      minLeaf <- Gen.choose(0, 4)
      featuresPerSplit <- Gen.choose(-1, nFeat + 1)
      seed <- Gen.choose(0L, 1000L)
    } yield (n, nFeat, levels, continuous, sampleKind, maxDepth, minLeaf, featuresPerSplit, seed)
    check(Prop.forAll(gen) {
      case (n, nFeat, levels, continuous, sampleKind, maxDepth, minLeaf, featuresPerSplit, seed) =>
        val rng = new Random(seed)
        val x = Array.fill(n, nFeat)(
          if (continuous && rng.nextBoolean()) rng.nextGaussian() else pool(rng.nextInt(levels)))
        val y = Array.fill(n)(rng.nextInt(4).toDouble)
        val sample = sampleKind match {
          case 0 => None
          case 1 => Some(Array.fill(n)(rng.nextInt(n)))
          case _ => Some(rng.shuffle(Array.range(0, n).toSeq).take(1 + rng.nextInt(n)).toArray)
        }
        matchesReference(x, y, sample, maxDepth, minLeaf, featuresPerSplit, seed)
    }, minSuccessful = 500)

    // Nodes large enough to scan and partition on several threads, with
    // columns whose gains tie exactly (a duplicate) or differ only in the
    // last bits (a jittered copy and the negation, summed in another order).
    val large = for {
      n <- Gen.choose(900, 2000)
      nFeat <- Gen.choose(8, 12)
      bootstrap <- Gen.oneOf(false, true)
      maxDepth <- Gen.choose(1, 5)
      minLeaf <- Gen.choose(1, 30)
      featuresPerSplit <- Gen.oneOf(0, 3)
      seed <- Gen.choose(0L, 1000L)
    } yield (n, nFeat, bootstrap, maxDepth, minLeaf, featuresPerSplit, seed)
    var cases, parallel = 0
    check(Prop.forAll(large) {
      case (n, nFeat, bootstrap, maxDepth, minLeaf, featuresPerSplit, seed) =>
        val rng = new Random(seed)
        val column = rng.shuffle(Array.range(0, nFeat).toSeq)
        val x = Array.fill(n) {
          val d = (rng.nextInt(7) - 3).toDouble
          val row = new Array[Double](nFeat)
          row(column(0)) = d
          row(column(1)) = d + 0.4 * rng.nextDouble() // level gap is 1
          row(column(2)) = d
          row(column(3)) = -d
          for (c <- 4 until nFeat) row(column(c)) = rng.nextGaussian()
          row
        }
        val y = x.map(r => 0.8 * r(column(0)) + r(column(4)) + rng.nextGaussian())
        val sample = if (bootstrap) Some(Array.fill(n)(rng.nextInt(n))) else None
        cases += 1
        // the root scans on several threads when every feature is a
        // candidate, and partitions on several threads unless its children
        // are leaves
        if (n * nFeat >= RegressionTree.ParallelFloor && (featuresPerSplit == 0 || maxDepth >= 2))
          parallel += 1
        matchesReference(x, y, sample, maxDepth, minLeaf, featuresPerSplit, seed)
    }, minSuccessful = 40)
    assert(parallel * 2 > cases, s"$parallel of $cases cases above the floor")
  }

  test("ensembles fitted on several threads at once equal a lone fit") {
    val rng = new Random(31)
    val x = Array.fill(2000)(Array.fill(10)(rng.nextGaussian()))
    val y = x.map(r => if (r(0) + 0.5 * r(1) + 0.5 * rng.nextGaussian() > 0) 1.0 else 0.0)
    // predictions and importances as bits
    def fitBoth(): Seq[Long] = {
      val gbm = new GBMClassifier().fit(x, y)
      val rf = new RandomForest().fit(x, y)
      (x.take(50).flatMap(r => Seq(gbm.predictProba(r), rf.predictScore(r))) ++ gbm.importances)
        .map(java.lang.Double.doubleToRawLongBits).toSeq
    }
    val lone = fitBoth()
    val start = new java.util.concurrent.CountDownLatch(1)
    val results = new java.util.concurrent.ConcurrentLinkedQueue[Seq[Long]]()
    val threads = Seq.fill(4)(new Thread(() => { start.await(); results.add(fitBoth()); () }))
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(results.size == 4)
    results.forEach(r => assert(r == lone))
  }
}
