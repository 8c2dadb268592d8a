package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GradientBoostingSpec extends AnyFunSuite {

  private def linearData(n: Int, seed: Int): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => 2 * xi(0) - xi(1) + 0.1 * rng.nextGaussian())
    (x, y)
  }

  private def classData(n: Int, seed: Int): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) + xi(1) > 0) 1.0 else 0.0)
    (x, y)
  }

  test("regressor fits a linear signal") {
    val (x, y) = linearData(500, 1)
    val m = new GBMRegressor(nTrees = 50).fit(x, y)
    assert(Metrics.r2(y, x.map(m.predict)) > 0.8)
  }

  test("regressor beats the mean predictor out of sample") {
    val (xtr, ytr) = linearData(400, 2)
    val (xte, yte) = linearData(200, 3)
    val m = new GBMRegressor(nTrees = 50).fit(xtr, ytr)
    val meanPred = Array.fill(yte.length)(ytr.sum / ytr.length)
    assert(Metrics.mse(yte, xte.map(m.predict)) < Metrics.mse(yte, meanPred))
  }

  test("more trees reduce training error") {
    val (x, y) = linearData(300, 4)
    val few = new GBMRegressor(nTrees = 3).fit(x, y)
    val many = new GBMRegressor(nTrees = 60).fit(x, y)
    assert(Metrics.mse(y, x.map(many.predict)) < Metrics.mse(y, x.map(few.predict)))
  }

  test("regressor with zero trees predicts the mean") {
    val (x, y) = linearData(100, 5)
    val m = new GBMRegressor(nTrees = 0).fit(x, y)
    assert(math.abs(m.predict(x(0)) - y.sum / y.length) < 1e-9)
  }

  test("regressor importances favor informative features") {
    val (x, y) = linearData(500, 6)
    val m = new GBMRegressor(nTrees = 30).fit(x, y)
    val im = m.importances
    assert(im(0) > im(2) && im(1) > im(2))
    assert(math.abs(im.sum - 1.0) < 1e-6)
  }

  test("regressor is deterministic") {
    val (x, y) = linearData(200, 7)
    val a = x.map(new GBMRegressor(nTrees = 10, seed = 5).fit(x, y).predict).toSeq
    val b = x.map(new GBMRegressor(nTrees = 10, seed = 5).fit(x, y).predict).toSeq
    assert(a == b)
  }

  test("classifier separates a linear boundary") {
    // axis-aligned trees approximate the diagonal boundary; 85% is solid
    val (x, y) = classData(500, 9)
    val m = new GBMClassifier(nTrees = 60).fit(x, y)
    val preds = x.map(xi => if (m.predictProba(xi) >= 0.5) 1.0 else 0.0)
    assert(Metrics.accuracy(y, preds) > 0.83)
  }

  test("classifier probabilities are in [0,1]") {
    val (x, y) = classData(200, 10)
    val m = new GBMClassifier(nTrees = 20).fit(x, y)
    assert(x.map(m.predictProba).forall(p => p >= 0.0 && p <= 1.0))
  }

  test("classifier AUC beats random") {
    val (x, y) = classData(400, 11)
    val m = new GBMClassifier(nTrees = 30).fit(x, y)
    assert(Metrics.auc(y, x.map(m.predictProba)) > 0.9)
  }

  test("classifier rejects non-binary labels") {
    val x = Array(Array(1.0), Array(2.0))
    intercept[IllegalArgumentException](new GBMClassifier().fit(x, Array(0.5, 1.0)))
  }

  test("classifier base rate respected with zero trees") {
    val (x, y) = classData(100, 12)
    val m = new GBMClassifier(nTrees = 0).fit(x, y)
    val p = m.predictProba(x(0))
    val rate = y.sum / y.length
    assert(math.abs(p - rate) < 0.05)
  }

  test("classifier importances sum to 1") {
    val (x, y) = classData(300, 13)
    val m = new GBMClassifier(nTrees = 20).fit(x, y)
    assert(math.abs(m.importances.sum - 1.0) < 1e-6)
  }
}
