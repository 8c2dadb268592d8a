package repro

package object bench {

  /** The `q`-quantile of `v`, interpolated linearly between its two nearest order statistics. */
  private[bench] def quantile(v: Seq[Double], q: Double): Double = {
    val s = v.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
}
