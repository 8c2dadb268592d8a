package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RandomForestSpec extends AnyFunSuite {

  private def classData(n: Int, seed: Int): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x = Array.fill(n)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) - xi(1) > 0) 1.0 else 0.0)
    (x, y)
  }

  test("classifies a linear boundary") {
    val (x, y) = classData(500, 1)
    val m = new RandomForest(nTrees = 20).fit(x, y)
    assert(Metrics.accuracy(y, x.map(xi => if (m.predictScore(xi) >= 0.5) 1.0 else 0.0)) > 0.9)
  }

  test("probability scores are in [0,1]") {
    val (x, y) = classData(200, 2)
    val m = new RandomForest(nTrees = 15).fit(x, y)
    assert(x.map(m.predictScore).forall(s => s >= 0.0 && s <= 1.0))
  }

  test("classification rejects non-binary labels") {
    intercept[IllegalArgumentException](
      new RandomForest().fit(Array(Array(1.0)), Array(0.3)))
  }

  test("deterministic for a fixed seed") {
    val (x, y) = classData(300, 4)
    val a = x.map(new RandomForest(nTrees = 10, seed = 2).fit(x, y).predictScore).toSeq
    val b = x.map(new RandomForest(nTrees = 10, seed = 2).fit(x, y).predictScore).toSeq
    assert(a == b)
  }

  test("different seeds give different forests") {
    val (x, y) = classData(300, 5)
    val a = x.map(new RandomForest(nTrees = 10, seed = 2).fit(x, y).predictScore).toSeq
    val b = x.map(new RandomForest(nTrees = 10, seed = 3).fit(x, y).predictScore).toSeq
    assert(a != b)
  }

  test("AUC on held-out data beats random") {
    val (xtr, ytr) = classData(400, 7)
    val (xte, yte) = classData(200, 8)
    val m = new RandomForest(nTrees = 25).fit(xtr, ytr)
    assert(Metrics.auc(yte, xte.map(m.predictScore)) > 0.85)
  }
}
