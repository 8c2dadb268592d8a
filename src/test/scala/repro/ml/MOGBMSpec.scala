package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MOGBMSpec extends AnyFunSuite {

  private def data(n: Int, seed: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val ys = x.map(xi => Array(2 * xi(0), -xi(1) + 0.5, xi(0) + xi(1)))
    (x, ys)
  }

  test("predicts every output jointly") {
    val (x, ys) = data(300, 1)
    val m = new MOGBM(nOutputs = 3, nTrees = 40).fit(x, ys)
    val preds = x.map(m.predict)
    (0 until 3).foreach { o =>
      assert(Metrics.r2(ys.map(_(o)), preds.map(_(o))) > 0.7, s"output $o")
    }
  }

  test("prediction arity matches nOutputs") {
    val (x, ys) = data(100, 2)
    val m = new MOGBM(nOutputs = 3, nTrees = 5).fit(x, ys)
    assert(m.predict(x(0)).length == 3)
  }

  test("rejects output arity mismatch") {
    val (x, _) = data(50, 3)
    val ysBad = x.map(_ => Array(1.0))
    intercept[IllegalArgumentException](new MOGBM(nOutputs = 2).fit(x, ysBad))
  }

  test("rejects zero outputs") {
    intercept[IllegalArgumentException](new MOGBM(nOutputs = 0))
  }

  test("predict before fit throws") {
    intercept[IllegalArgumentException](new MOGBM(nOutputs = 1).predict(Array(1.0)))
  }

  test("deterministic for a fixed seed") {
    val (x, ys) = data(150, 4)
    val a = new MOGBM(3, nTrees = 10, seed = 9).fit(x, ys).predict(x(0)).toSeq
    val b = new MOGBM(3, nTrees = 10, seed = 9).fit(x, ys).predict(x(0)).toSeq
    assert(a == b)
  }

  test("each output predicts as a GBM regressor fitted on it alone") {
    val (x, ys) = data(120, 6)
    val m = new MOGBM(3, nTrees = 15, seed = 4).fit(x, ys)
    val lone = (0 until 3).map(o => new GBMRegressor(15, 3, 2, 4L + o).fit(x, ys.map(_(o))))
    x.foreach { r =>
      val bits = m.predict(r).map(java.lang.Double.doubleToRawLongBits).toSeq
      assert(bits == lone.map(g => java.lang.Double.doubleToRawLongBits(g.predict(r))))
    }
  }

  test("estimator accuracy on a surrogate-like task (bitmap -> perf)") {
    // mimics the MODis use: features are bitmaps + size fractions
    val rng = new Random(5)
    val x = Array.fill(200)(Array.fill(8)(if (rng.nextBoolean()) 1.0 else 0.0))
    val ys = x.map { b =>
      Array(0.2 + 0.1 * b.take(4).sum, 0.9 - 0.08 * b.drop(4).sum)
    }
    val m = new MOGBM(2, nTrees = 60).fit(x, ys)
    val preds = x.map(m.predict)
    assert(Metrics.mse(ys.map(_(0)), preds.map(_(0))) < 0.01)
    assert(Metrics.mse(ys.map(_(1)), preds.map(_(1))) < 0.01)
  }
}
