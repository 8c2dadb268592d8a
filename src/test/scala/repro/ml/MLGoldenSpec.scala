package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Golden outputs of every model the system fits, with the hyperparameters
  * the system fits it with: `TabularTask`'s GBMs, RF and ridge,
  * `FeatureSelect`'s GBMs and linear models, and the `SurrogateValuator`'s
  * MO-GBM, plus the task's GBM classifier on a 2,000-row input whose
  * Gaussian features have more distinct values than a tree has bins.
  * Predictions on 5 rows, GBM importances and the linear models'
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

  /** 2,000 rows of ten features: seven Gaussians, each cut into 255
    * equal-count bins, and three discrete features with 3, 6 and 9 levels.
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
      "0.5705331809439291,0.0026097224059699153,2.759786859927389E-4,0.2472557645641049,0.001880321698736557,1.077757435086232E-4,0.0030982736776637696,0.009858814224260309,0.0,0.16438016805583427",
    "2,000-row GBMClassifier predictProba" ->
      "0.2775439383711438,0.15928776487993962,0.16670491217922015,0.16507055417329006,0.32166461373859295",
    "LogisticRegressionModel coefficients" ->
      "3.3878117042300135,1.746661820706672,-0.20230341916878403,-0.22286417485411872,-0.7677073699861997,0.0",
    "LogisticRegressionModel predictProba" ->
      "0.2950698417835979,0.6853630902127875,0.7464797368822388,0.9953210158264961,0.9802208520487101",
    "MOGBM predict" ->
      "2.1382040292783193,0.672382189321135,1.6128345560963715;1.495157961891707,0.9254326450165069,1.2866635929345296;0.9487266411067439,0.7789445232711423,0.4982727312514701;1.0866992671324622,0.9858570527482187,1.240908248573131;-0.42006499567854483,1.0305900459511668,-0.6525145541956773",
    "RandomForest predictScore" ->
      "0.7372939068100358,0.918003280182974,0.7885772269333915,0.833845598845599,0.9722222222222222",
    "RidgeRegression coefficients" ->
      "1.9426043562674236,-0.9892504162567536,-0.005441119500065555,0.005239813719627796,0.4178523114903066,0.0",
    "RidgeRegression predict" ->
      "2.5903359056406026,1.6554861813550332,0.5596190511395476,0.442418269099234,-0.595742695088302",
    "SkSFM GBMClassifier importances" ->
      "0.71311808453541,0.2713387170120575,0.007163509973601276,0.0038360463289003385,0.004543642150030945,0.0",
    "SkSFM GBMClassifier predictProba" ->
      "0.6318908851512504,0.7839072044141069,0.6934075659409625,0.7956826264043504,0.7520883904113571",
    "SkSFM GBMRegressor importances" ->
      "0.7915594625918222,0.18788214235752435,0.0022121183534283407,5.819842889133829E-4,0.01776429240831177,0.0",
    "SkSFM GBMRegressor predict" ->
      "2.176404739184804,1.3870558232641979,0.9818632660526332,0.9356381001388486,-0.3805067429249116",
    "task GBMClassifier importances" ->
      "0.6957834400837862,0.2599329230224961,0.016857667254459627,0.012794076170505804,0.014631893468752304,0.0",
    "task GBMClassifier predictProba" ->
      "0.6561126920779087,0.7928016786623406,0.6824422962461721,0.7951628145172501,0.7868548632024294",
    "task GBMRegressor importances" ->
      "0.781321941469375,0.18635819301469012,0.005736943390483516,0.0049541517318869,0.02162877039356458,0.0",
    "task GBMRegressor predict" ->
      "2.11526595508382,1.5668000319611963,0.8942795519880552,1.0122883253912072,-0.4025122968610194",
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
