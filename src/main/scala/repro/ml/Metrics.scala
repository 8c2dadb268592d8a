package repro.ml

import repro.util.Stats

/** Every performance measure in the paper's Table 3: classification
  * (accuracy, precision, recall, F1, AUC), regression (MSE, MAE, RMSE,
  * within-tolerance "accuracy"), ranking (P@k, R@k, NDCG@k), and the
  * data-quality scores (Fisher score, mutual information).
  */
object Metrics {

  // ---- classification --------------------------------------------------

  def accuracy(yTrue: Array[Double], yPred: Array[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "accuracy: bad input")
    Stats.countOf(yTrue.length)(i => yTrue(i) == yPred(i)).toDouble / yTrue.length
  }

  def precision(yTrue: Array[Double], yPred: Array[Double]): Double = {
    val tp = Stats.countOf(yTrue.length)(i => yPred(i) == 1.0 && yTrue(i) == 1.0)
    val fp = Stats.countOf(yTrue.length)(i => yPred(i) == 1.0 && yTrue(i) == 0.0)
    if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
  }

  def recall(yTrue: Array[Double], yPred: Array[Double]): Double = {
    val tp = Stats.countOf(yTrue.length)(i => yPred(i) == 1.0 && yTrue(i) == 1.0)
    val fn = Stats.countOf(yTrue.length)(i => yPred(i) == 0.0 && yTrue(i) == 1.0)
    if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
  }

  def f1(yTrue: Array[Double], yPred: Array[Double]): Double = {
    val p = precision(yTrue, yPred); val r = recall(yTrue, yPred)
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  /** ROC AUC via the Mann–Whitney U statistic on scores. */
  def auc(yTrue: Array[Double], scores: Array[Double]): Double = {
    require(yTrue.length == scores.length, "auc: length mismatch")
    val r = Stats.ranks(scores)
    val nPos = yTrue.count(_ == 1.0)
    val nNeg = yTrue.length - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    val sumPos = yTrue.indices.collect { case i if yTrue(i) == 1.0 => r(i) }.sum
    (sumPos - nPos * (nPos + 1) / 2.0) / (nPos.toDouble * nNeg)
  }

  // ---- regression ------------------------------------------------------

  def mse(yTrue: Array[Double], yPred: Array[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "mse: bad input")
    Stats.sumOf(yTrue.length) { i => val d = yTrue(i) - yPred(i); d * d } / yTrue.length
  }

  def mae(yTrue: Array[Double], yPred: Array[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "mae: bad input")
    Stats.sumOf(yTrue.length)(i => math.abs(yTrue(i) - yPred(i))) / yTrue.length
  }

  def rmse(yTrue: Array[Double], yPred: Array[Double]): Double = math.sqrt(mse(yTrue, yPred))

  def r2(yTrue: Array[Double], yPred: Array[Double]): Double = {
    val m = Stats.mean(yTrue)
    val ssTot = Stats.sumOf(yTrue.length) { i => val v = yTrue(i); (v - m) * (v - m) }
    if (ssTot <= 1e-12) return 0.0
    1.0 - Stats.sumOf(yTrue.length) { i => val d = yTrue(i) - yPred(i); d * d } / ssTot
  }

  private val RegressionTol = 0.5

  /** Regression "accuracy" (used for the paper's p_Acc on regression tasks
    * T1): fraction of predictions within [[RegressionTol]] standard
    * deviations of the truth — a within-tolerance hit rate.
    */
  def regressionAccuracy(yTrue: Array[Double], yPred: Array[Double]): Double = {
    val sd = math.sqrt(Stats.variance(yTrue)).max(1e-9)
    Stats.countOf(yTrue.length)(i => math.abs(yTrue(i) - yPred(i)) <= RegressionTol * sd).toDouble / yTrue.length
  }

  // ---- ranking (T5) ----------------------------------------------------

  /** Precision@k averaged over users. `recs(u)` is the ranked recommendation
    * list, `truth(u)` the held-out positives.
    */
  def precisionAtK(recs: Map[Int, Seq[Int]], truth: Map[Int, Set[Int]], k: Int): Double =
    avgOverUsers(recs, truth) { (rs, ts) => rs.take(k).count(ts.contains).toDouble / k }

  def recallAtK(recs: Map[Int, Seq[Int]], truth: Map[Int, Set[Int]], k: Int): Double =
    avgOverUsers(recs, truth) { (rs, ts) =>
      if (ts.isEmpty) 0.0 else rs.take(k).count(ts.contains).toDouble / ts.size
    }

  def ndcgAtK(recs: Map[Int, Seq[Int]], truth: Map[Int, Set[Int]], k: Int): Double =
    avgOverUsers(recs, truth) { (rs, ts) =>
      val dcg = rs.take(k).zipWithIndex.collect {
        case (it, pos) if ts.contains(it) => 1.0 / (math.log(pos + 2) / math.log(2))
      }.sum
      val ideal = (0 until math.min(k, ts.size)).map(p => 1.0 / (math.log(p + 2) / math.log(2))).sum
      if (ideal <= 0) 0.0 else dcg / ideal
    }

  private def avgOverUsers(recs: Map[Int, Seq[Int]], truth: Map[Int, Set[Int]])(
      f: (Seq[Int], Set[Int]) => Double): Double = {
    val users = truth.keys.filter(u => truth(u).nonEmpty).toSeq
    if (users.isEmpty) 0.0
    else users.map(u => f(recs.getOrElse(u, Seq.empty), truth(u))).sum / users.size
  }

  // ---- data-quality scores (Table 3: p_Fsc, p_MI) ----------------------

  /** Mean Fisher score over features for a binary-labelled frame: between-
    * class scatter over within-class scatter per feature, averaged.
    * Regression targets should be binarized at the median by the caller.
    */
  def fisherScore(x: Array[Array[Double]], y: Array[Double]): Double = {
    if (x.isEmpty || x(0).isEmpty) return 0.0
    val d = x(0).length
    val i1 = y.indices.filter(y(_) == 1.0).toArray
    val i0 = y.indices.filter(y(_) != 1.0).toArray
    if (i1.isEmpty || i0.isEmpty) return 0.0
    var acc = 0.0
    var j = 0
    while (j < d) {
      val col = x.map(_(j))
      val c1 = i1.map(col); val c0 = i0.map(col)
      val m = Stats.mean(col)
      val num = i1.length * math.pow(Stats.mean(c1) - m, 2) +
        i0.length * math.pow(Stats.mean(c0) - m, 2)
      val den = i1.length * Stats.variance(c1) + i0.length * Stats.variance(c0)
      acc += num / (den + 1e-9)
      j += 1
    }
    acc / d
  }

  private val MiBins = 5

  /** Mean mutual information (nats) between each feature (quantile-binned
    * into [[MiBins]]) and the binary label.
    */
  def mutualInformation(x: Array[Array[Double]], y: Array[Double]): Double = {
    if (x.isEmpty || x(0).isEmpty) return 0.0
    val d = x(0).length
    val n = x.length
    var acc = 0.0
    var j = 0
    while (j < d) {
      val col = x.map(_(j))
      val sorted = col.sorted
      val cuts = (1 until MiBins).map(b => sorted((b * n / MiBins).min(n - 1))).distinct.toArray
      def bin(v: Double): Int = { var i = 0; while (i < cuts.length && v > cuts(i)) i += 1; i }
      val joint = collection.mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
      val pb = collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
      val pc = collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
      var i = 0
      while (i < n) {
        val b = bin(col(i)); val c = if (y(i) == 1.0) 1 else 0
        joint((b, c)) += 1; pb(b) += 1; pc(c) += 1
        i += 1
      }
      var mi = 0.0
      joint.foreach { case ((b, c), cnt) =>
        val pxy = cnt.toDouble / n
        val px = pb(b).toDouble / n
        val py = pc(c).toDouble / n
        if (pxy > 0) mi += pxy * math.log(pxy / (px * py))
      }
      acc += math.max(0.0, mi)
      j += 1
    }
    acc / d
  }

  /** Binarize a numeric target at its median (for Fisher/MI on regression). */
  def binarizeAtMedian(y: Array[Double]): Array[Double] = {
    val sorted = y.sorted
    val med = sorted(y.length / 2)
    y.map(v => if (v > med) 1.0 else 0.0)
  }
}
