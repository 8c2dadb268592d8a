package repro.core

import org.apache.spark.sql.DataFrame
import repro.lake.{DataLake, TabularLake}
import repro.ml._
import repro.util.Stats

/** The model family a task trains (Section 6, "Tasks and Models"). */
sealed trait ModelKind
object ModelKind {
  case object RF extends ModelKind       // T2 "RFhouse"
  case object GBM extends ModelKind      // T1 "GBmovie", T4 "LGCmental" stand-in
  case object Ridge extends ModelKind    // T3 "LRavocado" (regression)
}

/** Evaluates a materialized dataset for one tabular task: trains the task's
  * fixed deterministic model on an 80/20 key-hash split, and produces both
  * the raw metrics the paper's tables report and the normalized minimized
  * performance vector the search optimizes.
  *
  * Normalization (Section 2): bounded metrics (accuracy-like) become
  * 1 − value; unbounded costs (time, MSE, MAE) are scaled by 2× their value
  * on the calibration dataset (the universal table); quality scores to be
  * maximized (Fisher, MI) become 1/(1+value). Everything is clipped into
  * (1e-3, 1].
  */
final class TabularTask(
    val lake: TabularLake,
    val modelKind: ModelKind,
    /** normalized measure names driving the search, e.g. Vector("acc","train","fsc","mi") */
    val measureNames: Vector[String],
    /** calibration denominators for "train" / "mse" / "mae" (raw units) */
    val calibration: Map[String, Double] = Map.empty,
) {
  import TabularTask._

  def measures: Vector[Measure] = measureNames.map(Measure(_))

  /** Re-create this task with denominators taken from the given dataset. */
  def calibrated(df: DataFrame): TabularTask =
    calibrated(evaluate(df).getOrElse(
      throw new IllegalStateException(s"calibration dataset for ${lake.name} unusable")))

  /** Re-create this task with an evaluation's raw "train"/"mse"/"mae" as denominators. */
  def calibrated(sU: EvalResult): TabularTask =
    new TabularTask(lake, modelKind, measureNames,
      Map("train" -> sU.raw("train"), "mse" -> sU.raw.getOrElse("mse", 1.0),
          "mae" -> sU.raw.getOrElse("mae", 1.0)))

  /** Evaluate a Spark table: collect it in key order and hand it to the
    * shared evaluation below. This is the Spark entry the benchmark and the
    * tests use; the program itself evaluates every dataset (the search's
    * states, Runner's s_U and the baselines' outputs) in place on the
    * driver copy of D_U.
    */
  def evaluate(df: DataFrame): Option[EvalResult] =
    evaluate(Frame.collect(df, lake.key, lake.target, df.columns.toSeq))

  /** Evaluate every row of a dataset held in the driver. */
  def evaluate(data: Frame): Option[EvalResult] = evaluate(data, Array.range(0, data.nRows))

  /** Evaluate the increasing `rows` of a dataset held in the driver: row `r`
    * has key `data.keys(r)`, label `data.y(r)` and features
    * `data.cols(_)(r)` (NaN = missing). The fit, the predictions and the
    * Fisher and MI scores all read one gather of the rows, mean-imputed
    * with train-split statistics. None when the rows are too few to train or
    * (classification) the train split misses a class.
    */
  def evaluate(data: Frame, rows: Array[Int]): Option[EvalResult] = {
    val n = rows.length
    if (data.nCols == 0 || n < MinRows) return None
    // positions in `rows`, split on the key hash
    val nTest = Stats.countOf(n)(i => data.keys(rows(i)) % 5 == 0)
    if (n - nTest < MinRows / 2 || nTest < 10) return None
    val trPos = new Array[Int](n - nTest)
    val trRows = new Array[Int](n - nTest)
    val tePos = new Array[Int](nTest)
    var nTr = 0
    var i = 0
    while (i < n) {
      // i - nTr is the number of test positions before i
      if (data.keys(rows(i)) % 5 == 0) tePos(i - nTr) = i
      else { trPos(nTr) = i; trRows(nTr) = rows(i); nTr += 1 }
      i += 1
    }
    val y = gather(data.y, rows)
    val ytr = gather(y, trPos)
    if (lake.classification && ytr.toSet.size < 2) return None

    val x = data.imputedRows(rows, data.columnMeans(trRows))
    val xtr = gather(x, trPos)
    val xte = gather(x, tePos)
    val yte = gather(y, tePos)

    val t0 = System.nanoTime()
    val scoreFn: Array[Double] => Double = modelKind match {
      case ModelKind.RF =>
        val m = new RandomForest(nTrees = 30, maxDepth = 8, minLeaf = 3).fit(xtr, ytr); m.predictScore _
      case ModelKind.GBM =>
        if (lake.classification) {
          val m = new GBMClassifier(nTrees = 30, maxDepth = 4).fit(xtr, ytr); m.predictProba _
        } else { val m = new GBMRegressor(nTrees = 30, maxDepth = 4).fit(xtr, ytr); m.predict _ }
      case ModelKind.Ridge =>
        val m = new RidgeRegression().fit(xtr, ytr); m.predict _
    }
    val trainSec = (System.nanoTime() - t0) / 1e9

    val scores = new Array[Double](xte.length)
    i = 0
    while (i < xte.length) { scores(i) = scoreFn(xte(i)); i += 1 }
    val raw = collection.mutable.Map[String, Double]("train" -> trainSec)
    if (lake.classification) {
      // the one place a classifier's score becomes a label
      val pred = scores.map(s => if (s >= 0.5) 1.0 else 0.0)
      raw += "acc" -> Metrics.accuracy(yte, pred)
      raw += "prec" -> Metrics.precision(yte, pred)
      raw += "rec" -> Metrics.recall(yte, pred)
      raw += "f1" -> Metrics.f1(yte, pred)
      raw += "auc" -> Metrics.auc(yte, scores)
    } else {
      raw += "mse" -> Metrics.mse(yte, scores)
      raw += "mae" -> Metrics.mae(yte, scores)
      raw += "rmse" -> Metrics.rmse(yte, scores)
      raw += "r2" -> Metrics.r2(yte, scores)
      raw += "acc" -> Metrics.regressionAccuracy(yte, scores)
    }
    // both scan every row, so only tasks whose measures use them compute them
    if (measureNames.exists(m => m == "fsc" || m == "mi")) {
      val yBin = if (lake.classification) y else Metrics.binarizeAtMedian(y)
      raw += "fsc" -> Metrics.fisherScore(x, yBin)
      raw += "mi" -> Metrics.mutualInformation(x, yBin)
    }

    val rawMap = raw.toMap
    Some(EvalResult(rawMap, measureNames.map(normalize(_, rawMap)).toArray, rows = n, cols = data.nCols))
  }

  /** Normalized, minimized value of one measure given the raw metric map. */
  def normalize(name: String, raw: Map[String, Double]): Double = {
    val v = name match {
      case "acc" | "f1" | "auc" | "prec" | "rec" => 1.0 - raw(name)
      case "fsc" | "mi"                          => 1.0 / (1.0 + raw(name))
      case "train" | "mse" | "mae" =>
        raw(name) / (2.0 * math.max(1e-9, calibration.getOrElse(name, raw(name))))
      case other => throw new IllegalArgumentException(s"unknown measure $other")
    }
    Stats.clip(v, 1e-3, 1.0)
  }
}

object TabularTask {
  val MinRows = 40

  /** `xs(at(0)), xs(at(1)), ...`: the gathers of `evaluate`, in primitive
    * loops (a `map` over an index array boxes every index and value).
    */
  private def gather(xs: Array[Double], at: Array[Int]): Array[Double] = {
    val out = new Array[Double](at.length)
    var i = 0
    while (i < at.length) { out(i) = xs(at(i)); i += 1 }
    out
  }

  private def gather(xs: Array[Array[Double]], at: Array[Int]): Array[Array[Double]] = {
    val out = new Array[Array[Double]](at.length)
    var i = 0
    while (i < at.length) { out(i) = xs(at(i)); i += 1 }
    out
  }

  /** One tabular task of Section 6: its lake's generation parameters, model,
    * search measures (Table 3) and the measure each method's winner is picked by (Exp-1).
    */
  final case class Spec(lake: DataLake.Params, model: ModelKind, measures: Vector[String], primary: String) {
    require(measures.contains(primary), s"${lake.name}: primary measure $primary not in $measures")
  }

  /** The paper's tasks T1–T4 (Tables 3–6). */
  val Specs: Vector[Spec] = Vector(
    // T1 — Kaggle "movie gross" regression (GBM model).
    Spec(DataLake.Params("movie", 3732, nInformative = 5, nNoise = 4,
      segK = (4, 3), noisySegs = Set(0), classification = false, seed = 101),
      ModelKind.GBM, Vector("acc", "fsc", "mi", "train"), primary = "acc"),
    // T2 — OpenData "house price" classification (Random Forest model).
    Spec(DataLake.Params("house", 1178, nInformative = 10, nNoise = 12,
      segK = (5, 4), noisySegs = Set(0, 1), classification = true, seed = 202),
      ModelKind.RF, Vector("f1", "acc", "fsc", "mi", "train"), primary = "f1"),
    // T3 — HF "avocado price" regression (linear model).
    Spec(DataLake.Params("avocado", 18249, nInformative = 6, nNoise = 4,
      segK = (5, 3), noisySegs = Set(0), classification = false, seed = 303),
      ModelKind.Ridge, Vector("mae", "mse", "train"), primary = "mse"),
    // T4 — Kaggle "mental health" classification (LightGBM stand-in: GBM).
    Spec(DataLake.Params("mental", 140700, nInformative = 8, nNoise = 9,
      segK = (5, 4), noisySegs = Set(0), classification = true, seed = 404),
      ModelKind.GBM, Vector("acc", "f1", "auc", "train"), primary = "acc"),
  )

  /** The task of the lake named `name`. */
  def spec(name: String): Spec = Specs.find(_.lake.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown lake $name"))

  /** The task of a Table lake, uncalibrated. */
  def forLake(lake: TabularLake): TabularTask =
    spec(lake.name) match { case Spec(_, model, measures, _) => new TabularTask(lake, model, measures) }
}
