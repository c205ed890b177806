package repro.perfbench

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.algos._
import repro.compiler.CostConfig
import repro.core._
import repro.dist.DistOps
import repro.runtime._

/** One algorithm call of a pass. `run` is called with a Gen context and
  * with a context in `refMode`, whose result is the reference. */
final case class AlgoCall(name: String, refMode: ExecMode, run: ExecContext => AlgoRun)

/** Generated inputs of a workload: the calls of one pass, a checksum of
  * every input matrix (computed on demand, outside set-up time), and the
  * time spent distributing inputs. */
final case class Inputs(calls: Seq[AlgoCall], checksum: () => Double, distributeS: Double)

/** A workload: inputs drawn from the seed, run locally or on Spark. Input
  * sizes follow the paper's Table 4-6 rows in `repro.bench.Benchmarks`. */
sealed trait Workload {
  def name: String
  def usesSpark: Boolean
  /** Nominal wall time of one warm pass; fixes the number of warm passes
    * for a given `--seconds`, so every run has the same structure. */
  def passSeconds: Double
  def mkCtx(mode: ExecMode, spark: Option[SparkSession]): ExecContext = new ExecContext(mode)
  def setup(seed: Long, spark: Option[SparkSession]): Inputs
}

object Workload {
  val All: Seq[Workload] = Seq(DenseScan, SparseCompute, DistDense)

  def byName(n: String): Workload =
    All.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n'; expected one of ${All.map(_.name).mkString(", ")}"))

  /** Independent generator and algorithm seeds drawn from the workload seed. */
  final class Seeds(seed: Long) {
    private val rng = new SplittableRandom(seed)
    def next(): Long = rng.nextLong()
  }

  /** Position-weighted sum of the non-zero cells. */
  def checksum(bs: MatrixBlock*): Double = {
    var acc = 0.0
    def add(i: Int, j: Int, v: Double): Unit = acc += v * (1 + (i * 31L + j) % 97)
    bs.foreach {
      case s: SparseBlock =>
        var i = 0
        while (i < s.rows) {
          var k = s.rowPtr(i)
          while (k < s.rowPtr(i + 1)) { add(i, s.colIdx(k), s.vals(k)); k += 1 }
          i += 1
        }
      case b =>
        val d = b.toDense
        var k = 0
        while (k < d.values.length) { add(k / d.cols, k % d.cols, d.values(k)); k += 1 }
    }
    acc
  }

  def labels01(y2: MatrixBlock): MatrixBlock =
    MatrixBlock.tabulate(y2.rows, 1)((i, _) => if (y2.get(i, 0) > 0) 1.0 else 0.0)
}

import Workload._

/** Table 4, local: scan-bound matrix-vector chains over a tall dense X. */
object DenseScan extends Workload {
  val name = "dense-scan"
  val usesSpark = false
  val passSeconds = 2.5

  def setup(seed: Long, spark: Option[SparkSession]): Inputs = {
    val s = new Seeds(seed)
    val x = AlgoData.denseFeatures(500_000, 10, s.next())
    val y2 = AlgoData.labels2(x, s.next())
    val y01 = labels01(y2)
    val yM = AlgoData.labelsOneHot(x, 3, s.next())
    val kmSeed = s.next()
    val X = LocalData(x)
    Inputs(Seq(
      AlgoCall("L2SVM", BaseMode, c => L2SVM.run(c, X, LocalData(y2), maxIter = 2, maxInnerIter = 5)),
      AlgoCall("MLogreg", BaseMode, c => MLogreg.run(c, X, LocalData(yM), maxIter = 1, innerIter = 4)),
      AlgoCall("GLM", BaseMode, c => GLM.run(c, X, LocalData(y01), maxIter = 1, innerIter = 5)),
      AlgoCall("KMeans", BaseMode, c => KMeans.run(c, X, k = 5, maxIter = 2, seed = kmSeed)),
    ), () => checksum(x, y2, yM), 0.0)
  }
}

/** Table 5 plus Table 4's Mnist row, local: Outer over a sparse input,
  * Row over sparse rows, and matrix-matrix AutoEncoder batches. */
object SparseCompute extends Workload {
  val name = "sparse-compute"
  val usesSpark = false
  val passSeconds = 3.0

  def setup(seed: Long, spark: Option[SparkSession]): Inputs = {
    val s = new Seeds(seed)
    val ratings = AlgoData.ratingsLike(10_000, 10_000, 0.01, s.next())
    val alsSeed = s.next()
    val mnist = AlgoData.mnistLike(20_000, s.next())
    // labels drawn from a dense copy: the same values, without a sparse
    // lookup per cell
    val yM = AlgoData.labelsOneHot(mnist.toDense, 3, s.next())
    val ae = AlgoData.denseFeatures(16_384, 128, s.next())
    val aeSeed = s.next()
    Inputs(Seq(
      // Base would materialize a dense 10^8-cell intermediate; Fused is
      // the reference, as in the paper's Table 5
      AlgoCall("ALS-CG", FusedMode, c => ALSCG.run(c, LocalData(ratings), rank = 20,
        outerIter = 1, cgIter = 2, seed = alsSeed)),
      AlgoCall("MLogreg", BaseMode, c => MLogreg.run(c, LocalData(mnist), LocalData(yM),
        maxIter = 1, innerIter = 3)),
      AlgoCall("AutoEncoder", BaseMode, c => AutoEncoder.run(c, LocalData(ae), h1 = 64, h2 = 2,
        batch = 512, seed = aeSeed, maxBatches = 8)),
    ), () => checksum(ratings, mnist, yM, ae), 0.0)
  }
}

/** Table 6, Spark: X as Dataset[BlockRow] with intermediates above 1 MB
  * kept distributed. */
object DistDense extends Workload {
  val name = "dist-dense"
  val usesSpark = true
  val passSeconds = 5.0
  val BlockSize = 4096
  private val cfg = CostConfig(localMemBudget = 1L << 20)

  override def mkCtx(mode: ExecMode, spark: Option[SparkSession]): ExecContext =
    new ExecContext(mode, cfg, spark, BlockSize)

  def setup(seed: Long, spark: Option[SparkSession]): Inputs = {
    val session = spark.getOrElse(throw new IllegalStateException(s"$name needs Spark"))
    val s = new Seeds(seed)
    val x = AlgoData.denseFeatures(50_000, 100, s.next())
    val y2 = AlgoData.labels2(x, s.next())
    val y01 = labels01(y2)
    val yM = AlgoData.labelsOneHot(x, 3, s.next())
    val kmSeed = s.next()
    val t0 = System.nanoTime()
    val X = DistData(DistOps.fromLocal(session, x, BlockSize))
    val distributeS = (System.nanoTime() - t0) / 1e9
    Inputs(Seq(
      AlgoCall("GLM", BaseMode, c => GLM.run(c, X, LocalData(y01), maxIter = 1, innerIter = 1)),
      AlgoCall("MLogreg", BaseMode, c => MLogreg.run(c, X, LocalData(yM), maxIter = 1, innerIter = 1)),
      AlgoCall("KMeans", BaseMode, c => KMeans.run(c, X, k = 5, maxIter = 1, seed = kmSeed)),
    ), () => checksum(x, y2, yM), distributeS)
  }
}
