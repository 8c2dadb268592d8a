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
    val t = new RegressionTree(2, 2).fit(new RegressionTree.Binned(x), y, new Random(0), left)
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

  /** Reference tree over the bins `data`: each node keeps its rows as its
    * own array and splits them with `partition`; the root's histogram and
    * each smaller child's (the left one on a tie) are counted from their
    * rows, and each larger child's is its parent's minus the smaller one.
    * Returns the root, the importances, and each split's gain in pre-order.
    */
  private def referenceFit(data: RegressionTree.Binned, y: Array[Double], rng: Random,
                           sample: Array[Int], maxDepth: Int, minLeaf: Int,
                           featuresPerSplit: Int): (Node, Array[Double], Vector[Double]) = {
    val nFeat = data.nFeatures
    val imp = new Array[Double](nFeat)
    val gains = Vector.newBuilder[Double]
    // hist(f)(b) = (sum of y, count) over the rows in bin b of feature f
    def histogram(idx: Array[Int]): Array[Array[(Double, Double)]] =
      Array.tabulate(nFeat) { f =>
        val h = Array.fill(data.nBins(f))((0.0, 0.0))
        idx.foreach { j => val (s, c) = h(data.code(j, f)); h(data.code(j, f)) = (s + y(j), c + 1.0) }
        h
      }
    def minus(a: Array[Array[(Double, Double)]], b: Array[Array[(Double, Double)]]) =
      a.zip(b).map { case (ha, hb) => ha.zip(hb).map { case ((s1, c1), (s2, c2)) => (s1 - s2, c1 - c2) } }
    def grow(idx: Array[Int], depth: Int, hist: Array[Array[(Double, Double)]]): Node = {
      val n = idx.length
      val sum = idx.foldLeft(0.0)((a, j) => a + y(j))
      val mean = sum / n
      if (depth >= maxDepth || n < 2 * minLeaf) return Leaf(mean)
      val sse = idx.foldLeft(0.0) { (a, j) => val d = y(j) - mean; a + d * d }
      if (sse <= 1e-12) return Leaf(mean)
      val cand =
        if (featuresPerSplit <= 0 || featuresPerSplit >= nFeat) Array.range(0, nFeat)
        else rng.shuffle((0 until nFeat).toList).take(featuresPerSplit).toArray
      var (bestGain, bestFeat, bestBin) = (0.0, -1, -1)
      for (f <- cand) {
        var (leftSum, nl) = (0.0, 0.0)
        for (b <- 0 until data.nBins(f) - 1; (s, c) = hist(f)(b) if c > 0) {
          leftSum += s
          nl += c
          if (nl >= math.max(minLeaf, 1) && n - nl >= math.max(minLeaf, 1)) {
            val rightSum = sum - leftSum
            val gain = leftSum * leftSum / nl + rightSum * rightSum / (n - nl) - sum * sum / n
            if (gain > bestGain + 1e-12) { bestGain = gain; bestFeat = f; bestBin = b }
          }
        }
      }
      if (bestFeat < 0) return Leaf(mean)
      imp(bestFeat) += bestGain
      gains += bestGain
      val (l, r) = idx.partition(j => data.code(j, bestFeat) <= bestBin)
      val small = histogram(if (l.length <= r.length) l else r)
      val large = minus(hist, small)
      val (hl, hr) = if (l.length <= r.length) (small, large) else (large, small)
      Split(bestFeat, data.thresholds(bestFeat)(bestBin), grow(l, depth + 1, hl), grow(r, depth + 1, hr))
    }
    val root = grow(sample, 0, histogram(sample))
    (root, imp, gains.result())
  }

  /** A tree with every double as its bits, so string equality is bit equality. */
  private def bits(n: Node): String = n match {
    case Leaf(v)           => s"L${java.lang.Double.doubleToRawLongBits(v)}"
    case Split(f, t, l, r) => s"S($f,${java.lang.Double.doubleToRawLongBits(t)},${bits(l)},${bits(r)})"
  }

  /** The sum of squared deviations from their mean of `y` over `idx`. */
  private def sse(y: Array[Double], idx: Seq[Int]): Double = {
    val mean = idx.map(y).sum / idx.size
    idx.map(j => (y(j) - mean) * (y(j) - mean)).sum
  }

  /** Each split's SSE reduction over the rows of `sample` that reach it,
    * partitioned by its threshold on their values, in pre-order.
    */
  private def partitionGains(root: Node, x: Array[Array[Double]], y: Array[Double],
                             sample: Seq[Int]): Vector[Double] = root match {
    case Leaf(_) => Vector.empty
    case Split(f, t, l, r) =>
      val (left, right) = sample.partition(j => x(j)(f) <= t)
      (sse(y, sample) - sse(y, left) - sse(y, right)) +:
        (partitionGains(l, x, y, left) ++ partitionGains(r, x, y, right))
  }

  /** Whether the tree of `sample` (all rows when None) is the reference
    * tree, bit for bit, importances included, and whether each of its
    * splits' gains is the SSE reduction of the partition its threshold
    * makes, to within 1e-9 relative.
    */
  private def matchesReference(x: Array[Array[Double]], y: Array[Double], sample: Option[Array[Int]],
                               maxDepth: Int, minLeaf: Int, featuresPerSplit: Int,
                               seed: Long): Boolean = {
    val data = new RegressionTree.Binned(x)
    val rows = sample.getOrElse(Array.range(0, x.length))
    val tree = new RegressionTree(maxDepth, minLeaf, featuresPerSplit).fit(data, y, new Random(seed), rows)
    val (root, imp, gains) = referenceFit(data, y, new Random(seed), rows, maxDepth, minLeaf, featuresPerSplit)
    val real = partitionGains(tree.root, x, y, rows.toSeq)
    bits(tree.root) == bits(root) &&
      tree.importances.map(java.lang.Double.doubleToRawLongBits).sameElements(
        imp.map(java.lang.Double.doubleToRawLongBits)) &&
      real.size == gains.size && real.zip(gains).forall { case (r, g) => math.abs(r - g) <= 1e-9 * math.abs(r) }
  }

  test("histogram trees equal trees grown per node and record real gains") {
    // few distinct levels per feature, including -0.0 vs 0.0, two doubles
    // that share a float and two adjacent doubles, so ties and near-ties
    // are common
    val pool = Vector(-0.0, 0.0, 1.0, 1.0 + 1e-9, 2.5, -3.0, math.nextUp(2.5), 7.25)
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

    // Nodes with hundreds of rows, Gaussian columns with more distinct
    // values than bins, and columns whose gains tie exactly (a duplicate)
    // or differ only in the last bits (a jittered copy and the negation,
    // summed in another order).
    val large = for {
      n <- Gen.choose(900, 2000)
      nFeat <- Gen.choose(8, 12)
      bootstrap <- Gen.oneOf(false, true)
      maxDepth <- Gen.choose(1, 5)
      minLeaf <- Gen.choose(1, 30)
      featuresPerSplit <- Gen.oneOf(0, 3)
      seed <- Gen.choose(0L, 1000L)
    } yield (n, nFeat, bootstrap, maxDepth, minLeaf, featuresPerSplit, seed)
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
        matchesReference(x, y, sample, maxDepth, minLeaf, featuresPerSplit, seed)
    }, minSuccessful = 40)
  }

  test("bins: at most 255 per feature, one per value when they fit, and thresholds partition as codes") {
    val gen = for {
      n <- Gen.choose(1, 1500)
      levels <- Gen.oneOf(1, 3, 255, 256, 100000)
      skew <- Gen.oneOf(false, true)
      seed <- Gen.choose(0L, 1000L)
    } yield (n, levels, skew, seed)
    check(Prop.forAll(gen) { case (n, levels, skew, seed) =>
      val rng = new Random(seed)
      // skewed columns put half the rows on one value, larger than a bin's share
      val x = Array.fill(n)(Array(
        if (skew && rng.nextBoolean()) 0.5 else rng.nextInt(levels) * 0.1 - 3.0,
        if (rng.nextBoolean()) -0.0 else 0.0))
      val data = new RegressionTree.Binned(x)
      (0 until 2).forall { f =>
        val distinct = x.map(_(f)).distinctBy(v => if (v == 0.0) 0.0 else v).length
        val nb = data.nBins(f)
        nb <= 255 && (distinct > 255 || nb == distinct) &&
          x.indices.forall(r => (0 until nb - 1).forall(b =>
            (x(r)(f) <= data.thresholds(f)(b)) == (data.code(r, f) <= b)))
      }
    }, minSuccessful = 100)
  }

  test("a split's recorded gain is the SSE reduction of the partition it makes") {
    // two distinct doubles that share a float: the split between them and
    // 2.0 reduces the SSE by 25, the split below 1.0 + 1e-9 by 8.33
    val x = Array(Array(1 + 1e-9), Array(1.0), Array(2.0), Array(3.0))
    val y = Array(0.0, 10.0, 10.0, 10.0)
    val t = new RegressionTree(maxDepth = 1, minLeaf = 1).fit(x, y)
    val RegressionTree.Split(0, thr, _, _) = t.root
    val left = x.indices.filter(x(_)(0) <= thr)
    val right = x.indices.filterNot(left.contains)
    val reduction = sse(y, x.indices) - sse(y, left) - sse(y, right)
    assert(math.abs(t.importances(0) - reduction) <= 1e-9 * reduction, s"${t.importances(0)} vs $reduction")
    assert(math.abs(reduction - 25.0) <= 1e-9)
  }

  test("rejects NaN features") {
    intercept[IllegalArgumentException](
      new RegressionTree().fit(Array(Array(1.0), Array(Double.NaN)), Array(0.0, 1.0)))
  }

  test("each training row's fitted value is the tree's prediction for it") {
    val rng = new Random(12)
    val x = Array.fill(300)(Array(rng.nextGaussian(), rng.nextInt(4).toDouble, rng.nextGaussian()))
    val y = x.map(r => r(0) + r(1) + 0.3 * rng.nextGaussian())
    val data = new RegressionTree.Binned(x)
    val bootstrap = Array.fill(300)(rng.nextInt(300))
    for (rows <- Seq(x.indices.toArray, bootstrap)) {
      val tree = new RegressionTree(4, 5).fit(data, y, new Random(1), rows)
      rows.foreach(i => assert(data.fitted(i) == tree.predict(x(i)), s"row $i"))
    }
  }

  test("trees grown in turn on one Binned equal trees grown on fresh bins") {
    val rng = new Random(13)
    val x = Array.fill(400)(Array(rng.nextGaussian(), rng.nextInt(5).toDouble, rng.nextGaussian()))
    val shared = new RegressionTree.Binned(x)
    // all rows (whose root counts the bins keep), a bootstrap, then all rows again
    val samples = Seq(x.indices.toArray, Array.fill(400)(rng.nextInt(400)), x.indices.toArray, x.indices.toArray)
    samples.zipWithIndex.foreach { case (rows, t) =>
      val y = x.map(r => r(0) * (t + 1) - r(1) + 0.3 * rng.nextGaussian())
      def grown(data: RegressionTree.Binned): Seq[Long] = {
        val tree = new RegressionTree(4, 5).fit(data, y, new Random(t), rows)
        x.toSeq.map(r => java.lang.Double.doubleToRawLongBits(tree.predict(r)))
      }
      assert(grown(shared) == grown(new RegressionTree.Binned(x)), s"tree $t")
    }
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
