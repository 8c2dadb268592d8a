package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RegressionTreeSpec extends AnyFunSuite {

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
    val t = new RegressionTree(2, 2).fit(x, y, new Random(0), left)
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
}
