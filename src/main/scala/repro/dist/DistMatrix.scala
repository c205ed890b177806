package repro.dist

import scala.reflect.ClassTag
import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.runtime._
import repro.runtime.Ops._

/** Distributed matrix: deserialized row blocks keyed by row-block index
  * (rbi), hash-partitioned by rbi, plus logical metadata. Row-blocking with
  * a single column block mirrors the common shape of SystemML's binary
  * block matrices for tall-and-skinny ML inputs; the B_c constraint on
  * distributed Row templates (paper §4.1) corresponds to "ncol fits one
  * block".
  *
  * Block-aligned operators keep the rbi partitioner, so matrices with the
  * same rows and block size stay co-partitioned and join without a
  * shuffle. `transposed` marks a lazy transpose view — only consumable by
  * transpose-aware matrix multiplies (like SystemML's physical operator
  * selection, which never materializes t(X) feeding a matmult).
  *
  * [[DistOps.fromLocal]] caches its blocks at `MEMORY_ONLY`, so loops
  * re-read them without re-serializing or re-shuffling. Inputs the caller
  * owns are released by Spark's `ContextCleaner` once unreachable; under
  * memory pressure, evicted blocks are recomputed from lineage rather than
  * failing the job.
  */
final case class DistMatrix(
    blocks: RDD[(Int, MatrixBlock)],
    rows: Long,
    cols: Long,
    blockSize: Int,
    sparsity: Double,
    transposed: Boolean = false,
) {
  def logicalRows: Long = if (transposed) cols else rows
  def logicalCols: Long = if (transposed) rows else cols
}

/** Distributed basic operators over rbi-partitioned block RDDs — the
  * runtime of Base-mode distributed execution. Fused distributed operators
  * live in [[DistTemplates]]. */
object DistOps {

  /** Row blocks of `m`, partitioned by rbi and cached; lazy, so no Spark
    * work happens until the first action. */
  def fromLocal(spark: SparkSession, m: MatrixBlock, blockSize: Int): DistMatrix = {
    val nBlocks = ((m.rows + blockSize - 1) / blockSize).toInt
    val blocks = (0 until nBlocks).map { rbi =>
      val from = rbi * blockSize
      val to = math.min(m.rows, from + blockSize)
      rbi -> LocalOps.rowSlice(m, from.toInt, to.toInt)
    }
    val rdd = spark.sparkContext.parallelize(blocks)
      .partitionBy(new HashPartitioner(math.min(nBlocks, 64)))
      .persist(StorageLevel.MEMORY_ONLY)
    DistMatrix(rdd, m.rows, m.cols, blockSize, m.sparsity)
  }

  def toLocal(dm: DistMatrix): MatrixBlock = {
    require(!dm.transposed, "collecting a transposed view is unsupported; transpose locally")
    LocalOps.rbind(dm.blocks.collect().sortBy(_._1).map(_._2).toSeq)
  }

  /** Apply f per row block; new column count must be provided when f
    * changes the shape. Row count per block must be preserved. */
  def mapBlocks(dm: DistMatrix, newCols: Long, newSparsity: Double)(
      f: MatrixBlock => MatrixBlock): DistMatrix =
    DistMatrix(dm.blocks.mapValues(f), dm.rows, newCols, dm.blockSize, newSparsity)

  /** Map each (rbi, value) pair, keeping the rbi partitioner — for
    * block-aligned operators that slice row-aligned broadcasts by rbi. */
  def mapWithRbi[V, W: ClassTag](rdd: RDD[(Int, V)])(f: (Int, V) => W): RDD[(Int, W)] =
    rdd.mapPartitions(_.map { case (rbi, v) => (rbi, f(rbi, v)) }, preservesPartitioning = true)

  /** Pair the blocks of two row-aligned matrices by rbi: a narrow join,
    * since both carry the same rbi partitioner. */
  def joinBlocks(a: DistMatrix, b: DistMatrix): RDD[(Int, (MatrixBlock, MatrixBlock))] = {
    require(a.rows == b.rows && a.blockSize == b.blockSize,
      s"row blocks differ: ${a.rows}/${a.blockSize} vs ${b.rows}/${b.blockSize}")
    a.blocks.join(b.blocks)
  }

  /** Run `f` with `v` broadcast, destroying the broadcast once `f` has
    * returned — for eager reductions, whose tasks are all done by then. */
  def withBroadcast[T: ClassTag, R](sc: SparkContext, v: T)(f: Broadcast[T] => R): R = {
    val b = sc.broadcast(v)
    try f(b) finally b.destroy()
  }

  /** Element-wise sum of per-block partial results. */
  def sumPartials(partials: RDD[Array[Double]]): Array[Double] =
    partials.reduce { (p, q) => VectorPrims.vectAdd(q, p); p }

  def unary(op: UnaryOp, dm: DistMatrix): DistMatrix =
    mapBlocks(dm, dm.cols, if (op.sparseSafe) dm.sparsity else 1.0)(LocalOps.unary(op, _))

  /** Element-wise op between two row-aligned distributed matrices. */
  def binaryDistDist(op: BinaryOp, a: DistMatrix, b: DistMatrix): DistMatrix = {
    val out = joinBlocks(a, b).mapValues { case (x, y) => LocalOps.binary(op, x, y) }
    DistMatrix(out, a.rows, math.max(a.cols, b.cols), a.blockSize, 1.0)
  }

  /** Element-wise op with a broadcast local rhs: a row vector / scalar is
    * used as-is; a row-aligned matrix or column vector is sliced per block. */
  def binaryDistLocal(op: BinaryOp, a: DistMatrix, b: MatrixBlock): DistMatrix = {
    val bb = a.blocks.sparkContext.broadcast(b)
    val bs = a.blockSize
    val rowAligned = b.rows == a.rows && b.rows > 1
    val out = mapWithRbi(a.blocks) { (rbi, blk) =>
      val rhs =
        if (rowAligned) LocalOps.rowSlice(bb.value, rbi * bs, rbi * bs + blk.rows)
        else bb.value
      LocalOps.binary(op, blk, rhs)
    }
    DistMatrix(out, a.rows, a.cols, a.blockSize, 1.0)
  }

  /** Element-wise op with a broadcast local lhs (sliced when row-aligned). */
  def binaryLocalDist(op: BinaryOp, a: MatrixBlock, b: DistMatrix): DistMatrix = {
    val ba = b.blocks.sparkContext.broadcast(a)
    val bs = b.blockSize
    val rowAligned = a.rows == b.rows && a.rows > 1
    val out = mapWithRbi(b.blocks) { (rbi, blk) =>
      val lhs =
        if (rowAligned) LocalOps.rowSlice(ba.value, rbi * bs, rbi * bs + blk.rows)
        else ba.value
      if (lhs.rows == 1 && lhs.cols == 1) LocalOps.binaryScalarLeft(op, lhs.get(0, 0), blk)
      else LocalOps.binary(op, lhs, blk)
    }
    DistMatrix(out, b.rows, math.max(a.cols, b.cols), b.blockSize, 1.0)
  }

  /** scalar op matrix (scalar on the left). */
  def binaryScalarLeft(op: BinaryOp, s: Double, a: DistMatrix): DistMatrix =
    mapBlocks(a, a.cols, 1.0)(LocalOps.binaryScalarLeft(op, s, _))

  /** X %*% W with a broadcast local rhs. */
  def matmulDistLocal(a: DistMatrix, w: MatrixBlock): DistMatrix = {
    require(!a.transposed, "transposed lhs requires matmulTransposeLeft")
    val bb = a.blocks.sparkContext.broadcast(w)
    mapBlocks(a, w.cols, 1.0)(blk => LocalOps.matmul(blk, bb.value))
  }

  /** t(X) %*% Z for a transposed view X and row-aligned Z (dist or local):
    * per-block partial products reduced at the driver. */
  def matmulTransposeLeft(x: DistMatrix, z: Either[DistMatrix, MatrixBlock]): MatrixBlock = {
    val sum = z match {
      case Left(zd) => sumPartials(transposeLeftPartials(x, zd))
      case Right(zl) =>
        val bs = x.blockSize
        withBroadcast(x.blocks.sparkContext, zl) { bz =>
          sumPartials(x.blocks.map { case (rbi, blk) =>
            val zBlk = LocalOps.rowSlice(bz.value, rbi * bs, rbi * bs + blk.rows)
            LocalOps.matmul(LocalOps.transpose(blk), zBlk).values
          })
        }
    }
    new DenseBlock(x.cols.toInt, z.fold(_.cols.toInt, _.cols), sum)
  }

  /** Per-block partials of t(X) %*% Z for a distributed Z. */
  private[dist] def transposeLeftPartials(x: DistMatrix, z: DistMatrix): RDD[Array[Double]] =
    joinBlocks(x, z).values.map { case (xb, zb) => LocalOps.matmul(LocalOps.transpose(xb), zb).values }

  /** Broadcast-left matmul: small local L (k x n) times row-blocked R
    * (n x m): per-block partial products of L's column slice, reduced. */
  def matmulLocalDist(l: MatrixBlock, r: DistMatrix): MatrixBlock = {
    require(l.cols == r.rows, s"matmul dims ${l.rows}x${l.cols} %*% ${r.rows}x${r.cols}")
    val bs = r.blockSize
    val sum = withBroadcast(r.blocks.sparkContext, l) { bl =>
      sumPartials(r.blocks.map { case (rbi, blk) =>
        val off = rbi * bs
        val lv = bl.value
        val sub = MatrixBlock.tabulate(lv.rows, blk.rows)((i, j) => lv.get(i, off + j))
        LocalOps.matmul(sub, blk).values
      })
    }
    new DenseBlock(l.rows, r.cols.toInt, sum)
  }

  def fullAgg(f: AggFunc, a: DistMatrix): MatrixBlock = {
    val res = a.blocks.values.map(LocalOps.agg(f, FullDir, _).get(0, 0)).reduce((x, y) => f(x, y))
    MatrixBlock.dense(1, 1, Array(res))
  }

  def colAgg(f: AggFunc, a: DistMatrix): MatrixBlock = {
    val combined = a.blocks.values.map(LocalOps.agg(f, ColDir, _).toDense.values).reduce { (p, q) =>
      var i = 0
      while (i < p.length) { p(i) = f(p(i), q(i)); i += 1 }
      p
    }
    new DenseBlock(1, a.cols.toInt, combined)
  }

  def rowAgg(f: AggFunc, a: DistMatrix): DistMatrix =
    mapBlocks(a, 1L, 1.0)(LocalOps.agg(f, RowDir, _))
}
