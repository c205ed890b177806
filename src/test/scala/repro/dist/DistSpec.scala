package repro.dist

import scala.collection.mutable
import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestLA}
import repro.compiler._
import repro.core._
import repro.runtime._
import repro.runtime.Ops._

/** Distributed runtime: basic operators over rbi-partitioned block RDDs
  * against local kernels, and fused distributed execution (per row block)
  * against local fused execution. */
class DistSpec extends SparkSpec {

  private val blockSize = 32
  private def distCtx(mode: ExecMode = GenMode(CostBased)) =
    new ExecContext(mode, CostConfig(localMemBudget = 4L << 10, distLatencyS = 0.0),
      Some(spark), blockSize)

  private val xDense  = MatrixBlock.rand(100, 12, 1.0, 1, min = -1, max = 1)
  private val xSparse = MatrixBlock.rand(100, 12, 0.2, 2, min = -1, max = 1)

  test("fromLocal/toLocal round trip (dense, sparse, odd block boundary)") {
    for (m <- Seq(xDense, xSparse, MatrixBlock.rand(97, 5, 1.0, 3))) {
      val dm = DistOps.fromLocal(spark, m, blockSize)
      assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(dm), m) == 0.0)
    }
  }
  test("distributed unary") {
    val dm = DistOps.fromLocal(spark, xDense, blockSize)
    val got = DistOps.toLocal(DistOps.unary(Sigmoid, dm))
    assert(MatrixBlock.maxAbsDiff(got, LocalOps.unary(Sigmoid, xDense)) < 1e-12)
  }
  test("distributed binary dist-dist") {
    val a = DistOps.fromLocal(spark, xDense, blockSize)
    val b = DistOps.fromLocal(spark, xSparse, blockSize)
    val got = DistOps.toLocal(DistOps.binaryDistDist(Plus, a, b))
    assert(MatrixBlock.maxAbsDiff(got, LocalOps.binary(Plus, xDense, xSparse)) < 1e-12)
  }
  test("distributed binary with broadcast row vector and sliced column vector") {
    val a = DistOps.fromLocal(spark, xDense, blockSize)
    val rv = MatrixBlock.rand(1, 12, 1.0, 4)
    val cv = MatrixBlock.rand(100, 1, 1.0, 5)
    assert(MatrixBlock.maxAbsDiff(
      DistOps.toLocal(DistOps.binaryDistLocal(Mult, a, rv)),
      LocalOps.binary(Mult, xDense, rv)) < 1e-12)
    assert(MatrixBlock.maxAbsDiff(
      DistOps.toLocal(DistOps.binaryDistLocal(Plus, a, cv)),
      LocalOps.binary(Plus, xDense, cv)) < 1e-12)
  }
  test("distributed matmul with broadcast rhs") {
    val a = DistOps.fromLocal(spark, xDense, blockSize)
    val w = MatrixBlock.rand(12, 4, 1.0, 6, min = -1, max = 1)
    val got = DistOps.toLocal(DistOps.matmulDistLocal(a, w))
    assert(MatrixBlock.maxAbsDiff(got, LocalOps.matmul(xDense, w)) < 1e-9)
  }
  test("distributed t(X) %*% Z, Z distributed") {
    val a = DistOps.fromLocal(spark, xDense, blockSize)
    val zL = MatrixBlock.rand(100, 3, 1.0, 7, min = -1, max = 1)
    val z = DistOps.fromLocal(spark, zL, blockSize)
    val got = DistOps.matmulTransposeLeft(a, Left(z))
    val expect = LocalOps.matmul(LocalOps.transpose(xDense), zL)
    assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9)
  }
  test("distributed t(X) %*% Z, Z local broadcast") {
    val a = DistOps.fromLocal(spark, xSparse, blockSize)
    val zL = MatrixBlock.rand(100, 3, 1.0, 8, min = -1, max = 1)
    val got = DistOps.matmulTransposeLeft(a, Right(zL))
    val expect = LocalOps.matmul(LocalOps.transpose(xSparse), zL)
    assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9)
  }
  test("distributed aggregations (full/col/row, sum/min/max)") {
    val a = DistOps.fromLocal(spark, xDense, blockSize)
    for (f <- Seq(SumAgg, MinAgg, MaxAgg)) {
      assert(MatrixBlock.maxAbsDiff(DistOps.fullAgg(f, a), LocalOps.agg(f, FullDir, xDense)) < 1e-9)
      assert(MatrixBlock.maxAbsDiff(DistOps.colAgg(f, a), LocalOps.agg(f, ColDir, xDense)) < 1e-9)
      assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(DistOps.rowAgg(f, a)), LocalOps.agg(f, RowDir, xDense)) < 1e-9)
    }
  }

  /** Ids of every shuffle in the lineage of `rdd`. */
  private def shuffleIds(rdd: RDD[_]): Set[Int] = {
    val seen = mutable.Set[Int]()
    def walk(r: RDD[_]): Set[Int] =
      if (!seen.add(r.id)) Set.empty
      else r.dependencies.flatMap {
        case s: ShuffleDependency[_, _, _] => walk(s.rdd) + s.shuffleId
        case d                             => walk(d.rdd)
      }.toSet
    walk(rdd)
  }

  test("co-partitioned operators shuffle nothing beyond their inputs' partitionBy") {
    val a = DistOps.fromLocal(spark, xDense, blockSize)
    val b = DistOps.fromLocal(spark, xSparse, blockSize)
    assert(a.blocks.getStorageLevel == StorageLevel.MEMORY_ONLY)
    val inputs = shuffleIds(a.blocks) ++ shuffleIds(b.blocks)
    assert(inputs.size == 2)
    // operands already mapped by block-aligned operators must stay aligned
    val a1 = DistOps.binaryDistLocal(Mult, a, MatrixBlock.rand(100, 1, 1.0, 21))
    val b1 = DistOps.unary(Abs, b)
    assert(shuffleIds(DistOps.binaryDistDist(Plus, a1, b1).blocks) == inputs)
    assert(shuffleIds(DistOps.transposeLeftPartials(a1, b1)) == inputs)

    val ctx = distCtx()
    implicit val c: ExecContext = ctx
    val root = (ctx.bindDist("X", a) * ctx.bindDist("Y", b) + 1.0).exp
    val plan = ctx.compilePlan(Seq(root.hop))
    assert(plan.ops.exists(_.isInstanceOf[PFused]), plan.toString)
    val DistData(out) = ctx.eval(Seq(root)).head: @unchecked
    assert(shuffleIds(out.blocks) == inputs)
    assert(out.blocks.partitioner == a.blocks.partitioner)
    assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(out),
      LocalOps.unary(Exp, LocalOps.binary(Plus, LocalOps.binary(Mult, xDense, xSparse),
        MatrixBlock.dense(1, 1, Array(1.0))))) < 1e-12)
  }

  test("more row blocks than partitions, 1-row tail block: round trip, Row and MAgg equal local Base") {
    val x0 = MatrixBlock.rand(151, 6, 1.0, 17, min = -1, max = 1)
    val dm = DistOps.fromLocal(spark, x0, 2)
    assert(dm.blocks.getNumPartitions == 64)
    assert(dm.blocks.count() == 76)
    assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(dm), x0) == 0.0)

    val p0 = MatrixBlock.rand(151, 3, 1.0, 18, min = 0.1, max = 1)
    val v0 = MatrixBlock.rand(6, 3, 1.0, 19, min = -1, max = 1)
    val y0 = MatrixBlock.rand(151, 6, 1.0, 20, min = -1, max = 1)
    def build(ctx: ExecContext, x: MX): Seq[MX] = {
      implicit val c: ExecContext = ctx
      val p = ctx.bindLocal("P", p0)
      val q = p * (x %*% ctx.bindLocal("V", v0))
      val y = ctx.bindLocal("Y", y0)
      Seq(x.t %*% (q - p * q.rowSums), (x ^ 2.0).sum, (x * y).sum)
    }
    val dCtx = new ExecContext(GenMode(CostBased),
      CostConfig(localMemBudget = 4L << 10, distLatencyS = 0.0), Some(spark), 2)
    val dRoots = build(dCtx, dCtx.bindDist("X", dm))
    val plan = dCtx.compilePlan(dRoots.map(_.hop))
    assert(plan.ops.exists { case PFused(s) => s.tpe == RowTpl; case _ => false }, plan.toString)
    assert(plan.ops.exists(_.isInstanceOf[PMultiAgg]), plan.toString)
    val lCtx = new ExecContext(BaseMode)
    val expect = lCtx.eval(build(lCtx, lCtx.bindLocal("X", x0))).map(_.toLocal)
    dCtx.eval(dRoots).map(_.toLocal).zip(expect).foreach { case (g, e) =>
      assert(MatrixBlock.maxAbsDiff(g, e) < 1e-9)
    }
  }

  /** Full pipeline over a distributed X vs the same pipeline local. */
  private def distVsLocal(tol: Double = 1e-9)(build: (ExecContext, MX) => Seq[MX]): Unit = {
    for (x0 <- Seq(xDense, xSparse); mode <- TestLA.allModes) {
      val dCtx = distCtx(mode)
      val dx = dCtx.bindDist("X", DistOps.fromLocal(spark, x0, blockSize))
      val dRes = dCtx.eval(build(dCtx, dx)).map(_.toLocal)
      val lCtx = new ExecContext(BaseMode)
      val lx = lCtx.bindLocal("X", x0)
      val lRes = lCtx.eval(build(lCtx, lx)).map(_.toLocal)
      dRes.zip(lRes).foreach { case (d, l) =>
        assert(MatrixBlock.maxAbsDiff(d, l) < tol, s"mode=${mode.label} dense=${!x0.isSparseFormat}")
      }
    }
  }

  test("distributed cell chain with aggregate equals local (all modes)") {
    distVsLocal() { (ctx, x) =>
      implicit val c: ExecContext = ctx
      Seq(((x * 2.0 + 1.0) ^ 2.0).sum, (x * x).rowSums)
    }
  }
  test("distributed mmchain t(X)(w*(Xv)) equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val v = ctx.bindLocal("v", MatrixBlock.rand(12, 1, 1.0, 9))
      val w = ctx.bindLocal("w", MatrixBlock.rand(100, 1, 1.0, 10, min = 0.1, max = 1))
      Seq(x.t %*% (w * (x %*% v)))
    }
  }
  test("distributed Eq2 row pattern equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val p = ctx.bindLocal("P", MatrixBlock.rand(100, 4, 1.0, 11, min = 0.1, max = 1))
      val v = ctx.bindLocal("V", MatrixBlock.rand(12, 4, 1.0, 12, min = -1, max = 1))
      val q = p * (x %*% v)
      Seq(x.t %*% (q - p * q.rowSums))
    }
  }
  test("distributed multi-aggregate equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val y = ctx.bindLocal("Y", MatrixBlock.rand(100, 12, 1.0, 13, min = -1, max = 1))
      Seq((x ^ 2.0).sum, (x * y).sum)
    }
  }
  test("distributed outer-product operator equals local (Gen)") {
    val x0 = MatrixBlock.rand(100, 80, 0.1, 14, min = 0.1, max = 1)
    val u0 = MatrixBlock.rand(100, 5, 1.0, 15, min = -1, max = 1)
    val v0 = MatrixBlock.rand(80, 5, 1.0, 16, min = -1, max = 1)
    val lCtx = new ExecContext(BaseMode)
    val expect = {
      implicit val c: ExecContext = lCtx
      val x = lCtx.bindLocal("X", x0); val u = lCtx.bindLocal("U", u0); val v = lCtx.bindLocal("V", v0)
      lCtx.eval(Seq((x.neq0 * (u %*% v.t)) %*% v, (x * ((u %*% v.t) + 8.0).log).sum)).map(_.toLocal)
    }
    val dCtx = distCtx()
    val got = {
      implicit val c: ExecContext = dCtx
      val x = dCtx.bindDist("X", DistOps.fromLocal(spark, x0, blockSize))
      val u = dCtx.bindLocal("U", u0); val v = dCtx.bindLocal("V", v0)
      dCtx.eval(Seq((x.neq0 * (u %*% v.t)) %*% v, (x * ((u %*% v.t) + 8.0).log).sum)).map(_.toLocal)
    }
    got.zip(expect).foreach { case (g, e) => assert(MatrixBlock.maxAbsDiff(g, e) < 1e-8) }
  }
  test("distributed plans actually use distributed fused operators") {
    val dCtx = distCtx()
    implicit val c: ExecContext = dCtx
    val x = dCtx.bindDist("X", DistOps.fromLocal(spark, xDense, blockSize))
    val plan = dCtx.compilePlan(Seq(((x * 2.0) ^ 2.0).sum.hop))
    assert(plan.fusedOps.nonEmpty, plan.toString)
  }
}
