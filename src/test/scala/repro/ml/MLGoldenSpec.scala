package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Golden outputs of every model the system fits, with the hyperparameters
  * the system fits it with: `TabularTask`'s GBMs, RF and ridge,
  * `FeatureSelect`'s GBMs and linear models, and the `SurrogateValuator`'s
  * MO-GBM, plus the task's GBM classifier on a 2,000-row input whose upper
  * tree nodes are large enough to scan in parallel. Predictions on 5 rows, GBM importances and the linear models'
  * coefficients print in their shortest round-trip form, so string
  * equality is bit equality. A refactor of the ML substrate must reproduce
  * these strings exactly.
  */
class MLGoldenSpec extends AnyFunSuite {

  private val nRows = 320

  /** Six features: four Gaussians, a five-level discrete one (ties for the
    * tree splits) and a constant one (the standardizer's sd = 0 case).
    */
  private val x: Array[Array[Double]] = {
    val rng = new Random(2024)
    Array.fill(nRows)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian(),
      rng.nextGaussian(), rng.nextInt(5).toDouble, 3.0))
  }

  private val yReg: Array[Double] = {
    val rng = new Random(77)
    x.map(r => 2 * r(0) - r(1) + 0.5 * r(2) * r(3) + 0.3 * r(4) + 0.2 * rng.nextGaussian())
  }

  private val yCls: Array[Double] = {
    val rng = new Random(78)
    x.map(r => if (r(0) + 0.5 * r(1) - 0.2 * r(4) + 0.4 + 0.5 * rng.nextGaussian() > 0) 1.0 else 0.0)
  }

  private val rows = Seq(0, 57, 128, 199, 311)

  /** 2,000 rows of ten features, large enough that a tree's upper nodes
    * scan their features on several threads: seven Gaussians and three
    * discrete features with 3, 6 and 9 levels.
    */
  private val xLarge: Array[Array[Double]] = {
    val rng = new Random(2026)
    Array.fill(2000)(Array.tabulate(10)(j =>
      if (j < 7) rng.nextGaussian() else rng.nextInt(3 * (j - 6)).toDouble))
  }

  private val yLarge: Array[Double] = {
    val rng = new Random(79)
    xLarge.map(r => if (r(0) - 0.7 * r(3) + 0.3 * r(7) - 0.2 * r(9) + 0.6 * rng.nextGaussian() > 0) 1.0 else 0.0)
  }

  private val rowsLarge = Seq(0, 333, 1024, 1500, 1999)

  private def fmt(v: Seq[Double]): String = v.mkString(",")
  private def at(f: Array[Double] => Double): String = fmt(rows.map(i => f(x(i))))

  private def render(): Map[String, String] = {
    val gbmR = new GBMRegressor(nTrees = 30, maxDepth = 4).fit(x, yReg)
    val gbmC = new GBMClassifier(nTrees = 30, maxDepth = 4).fit(x, yCls)
    val selR = new GBMRegressor(nTrees = 30).fit(x, yReg)
    val selC = new GBMClassifier(nTrees = 30).fit(x, yCls)
    val rf = new RandomForest(30, 8, 3).fit(x, yCls)
    val ridge = new RidgeRegression().fit(x, yReg)
    val logit = new LogisticRegressionModel().fit(x, yCls)
    val ys = x.indices.map(i => Array(yReg(i), yCls(i), yReg(i) * yCls(i))).toArray
    val mogbm = new MOGBM(nOutputs = 3, nTrees = 40, maxDepth = 3, minLeaf = 2).fit(x, ys)
    val gbmL = new GBMClassifier(nTrees = 30, maxDepth = 4).fit(xLarge, yLarge)
    Map(
      "task GBMRegressor predict" -> at(gbmR.predict),
      "task GBMRegressor importances" -> fmt(gbmR.importances),
      "task GBMClassifier predictProba" -> at(gbmC.predictProba),
      "task GBMClassifier importances" -> fmt(gbmC.importances),
      "SkSFM GBMRegressor predict" -> at(selR.predict),
      "SkSFM GBMRegressor importances" -> fmt(selR.importances),
      "SkSFM GBMClassifier predictProba" -> at(selC.predictProba),
      "SkSFM GBMClassifier importances" -> fmt(selC.importances),
      "RandomForest predictScore" -> at(rf.predictScore),
      "RidgeRegression predict" -> at(ridge.predict),
      "RidgeRegression coefficients" -> fmt(ridge.coefficients),
      "LogisticRegressionModel predictProba" -> at(logit.predictProba),
      "LogisticRegressionModel coefficients" -> fmt(logit.coefficients),
      "MOGBM predict" -> rows.map(i => fmt(mogbm.predict(x(i)))).mkString(";"),
      "2,000-row GBMClassifier predictProba" -> fmt(rowsLarge.map(i => gbmL.predictProba(xLarge(i)))),
      "2,000-row GBMClassifier importances" -> fmt(gbmL.importances))
  }

  // Recorded, not derived: any change to these strings is a change of behaviour.
  private val expected: Map[String, String] = Map(
    "2,000-row GBMClassifier importances" ->
      "0.7173022467694516,0.0021187172858567666,6.17626631554558E-4,0.1891157499544196,0.0,4.97626824148298E-4,5.290158902027475E-4,5.671695175981252E-4,0.0,0.0892518471267684",
    "2,000-row GBMClassifier predictProba" ->
      "0.253722876219738,0.16706237920355796,0.16615343018394435,0.16754811327908284,0.5103534422375978",
    "LogisticRegressionModel coefficients" ->
      "3.3878117042300135,1.746661820706672,-0.20230341916878403,-0.22286417485411872,-0.7677073699861997,0.0",
    "LogisticRegressionModel predictProba" ->
      "0.2950698417835979,0.6853630902127875,0.7464797368822388,0.9953210158264961,0.9802208520487101",
    "MOGBM predict" ->
      "2.2661384987166713,0.7286870716942834,1.1189521307936592;1.2357085507716894,0.9698297278046311,1.1189521307936592;1.3774180588153313,0.6824147088737071,0.5967569362604754;0.6680607720182272,0.8935894921364158,1.0581354060893158;-0.3207701541126464,0.9382141352667406,0.14172573900425356",
    "RandomForest predictScore" ->
      "0.667493120985768,0.8467261904761905,0.7283258759517955,0.971078431372549,0.9505733808674985",
    "RidgeRegression coefficients" ->
      "1.9426043562674236,-0.9892504162567536,-0.005441119500065555,0.005239813719627796,0.4178523114903066,0.0",
    "RidgeRegression predict" ->
      "2.5903359056406026,1.6554861813550332,0.5596190511395476,0.442418269099234,-0.595742695088302",
    "SkSFM GBMClassifier importances" ->
      "0.7761892561981706,0.2008883928866093,0.017802522461312534,0.0,0.0051198284539076665,0.0",
    "SkSFM GBMClassifier predictProba" ->
      "0.6579263859031255,0.7728805187749686,0.5469568541102295,0.7537875867920601,0.7260918411787014",
    "SkSFM GBMRegressor importances" ->
      "0.7904826473401718,0.18264080355288342,0.0038569659515587163,0.001024820523177233,0.021994762632208724,0.0",
    "SkSFM GBMRegressor predict" ->
      "2.1908188807887368,1.090508218404989,1.430055060493656,0.7570466620798841,-0.17677308356134147",
    "task GBMClassifier importances" ->
      "0.6769147197521427,0.26328911508822667,0.03475292292781567,0.020945692663101027,0.004097549568713868,0.0",
    "task GBMClassifier predictProba" ->
      "0.6520574701869127,0.78155514581321,0.6206995198890329,0.7663455062502842,0.7473791560156136",
    "task GBMRegressor importances" ->
      "0.7794561926718323,0.1771228124461473,0.012378199175095722,0.005853784307997864,0.025189011398926688,0.0",
    "task GBMRegressor predict" ->
      "2.14252412784801,1.505150287616547,0.9298619879844531,1.0651208764479576,-0.4440740724439429",
  )

  private lazy val actual = render()

  for (name <- expected.keys.toSeq.sorted)
    test(s"$name reproduces its golden output") {
      assert(actual(name) == expected(name))
    }

  test("every golden output is pinned") {
    assert(actual.keySet == expected.keySet)
  }
}
