package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LinearModelsSpec extends AnyFunSuite {

  test("ridge recovers a linear relationship") {
    val rng = new Random(1)
    val x = Array.fill(300)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => 3 * xi(0) - 2 * xi(1) + 1 + rng.nextGaussian() * 0.01)
    val m = new RidgeRegression().fit(x, y)
    assert(Metrics.r2(y, x.map(m.predict)) > 0.99)
  }

  test("ridge intercept equals mean for pure-noise features") {
    val rng = new Random(2)
    val x = Array.fill(200)(Array(rng.nextGaussian()))
    val y = Array.fill(200)(5.0)
    val m = new RidgeRegression().fit(x, y)
    assert(math.abs(m.predict(Array(0.0)) - 5.0) < 1e-6)
  }

  test("ridge standardized coefficients rank informative over noise") {
    val rng = new Random(3)
    val x = Array.fill(400)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => 4 * xi(0) + 0.5 * xi(1) + rng.nextGaussian() * 0.1)
    val c = new RidgeRegression().fit(x, y).coefficients.map(math.abs)
    assert(c(0) > c(1) && c(1) > c(2))
  }

  test("ridge handles collinear features without blowing up") {
    val rng = new Random(4)
    val base = Array.fill(200)(rng.nextGaussian())
    val x = base.map(b => Array(b, b * 2.0))
    val y = base.map(_ * 3.0)
    val m = new RidgeRegression(lambda = 1e-2).fit(x, y)
    assert(x.map(m.predict).forall(v => !v.isNaN && !v.isInfinite))
  }

  test("ridge larger lambda shrinks coefficients") {
    val rng = new Random(5)
    val x = Array.fill(300)(Array(rng.nextGaussian()))
    val y = x.map(xi => 2 * xi(0))
    val small = new RidgeRegression(lambda = 1e-4).fit(x, y).coefficients(0).abs
    val large = new RidgeRegression(lambda = 10).fit(x, y).coefficients(0).abs
    assert(large < small)
  }

  test("logreg separates a linear boundary") {
    val rng = new Random(6)
    val x = Array.fill(400)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) + 2 * xi(1) > 0) 1.0 else 0.0)
    val m = new LogisticRegressionModel().fit(x, y)
    assert(Metrics.accuracy(y, x.map(xi => if (m.predictProba(xi) >= 0.5) 1.0 else 0.0)) > 0.93)
  }

  test("logreg probabilities are in [0,1]") {
    val rng = new Random(7)
    val x = Array.fill(100)(Array(rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) > 0) 1.0 else 0.0)
    val m = new LogisticRegressionModel().fit(x, y)
    assert(x.map(m.predictProba).forall(p => p >= 0.0 && p <= 1.0))
  }

  test("logreg rejects non-binary labels") {
    intercept[IllegalArgumentException](
      new LogisticRegressionModel().fit(Array(Array(1.0)), Array(0.5)))
  }

  test("logreg coefficients reflect feature usefulness") {
    val rng = new Random(8)
    val x = Array.fill(500)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) > 0) 1.0 else 0.0)
    val c = new LogisticRegressionModel().fit(x, y).coefficients.map(math.abs)
    assert(c(0) > c(1))
  }

  test("logreg AUC beats random on noisy labels") {
    val rng = new Random(9)
    val x = Array.fill(400)(Array(rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) + rng.nextGaussian() * 0.5 > 0) 1.0 else 0.0)
    val m = new LogisticRegressionModel().fit(x, y)
    assert(Metrics.auc(y, x.map(m.predictProba)) > 0.8)
  }

  test("both models are deterministic") {
    val rng = new Random(10)
    val x = Array.fill(150)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val yR = x.map(xi => xi(0) * 2)
    val yC = x.map(xi => if (xi(1) > 0) 1.0 else 0.0)
    assert(x.map(new RidgeRegression().fit(x, yR).predict).toSeq ==
      x.map(new RidgeRegression().fit(x, yR).predict).toSeq)
    assert(x.map(new LogisticRegressionModel().fit(x, yC).predictProba).toSeq ==
      x.map(new LogisticRegressionModel().fit(x, yC).predictProba).toSeq)
  }
}
