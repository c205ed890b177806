package repro.runtime

/** Scalar operator semantics shared by the HOP IR and the interpreter
  * ("Base" execution); [[repro.compiler.Codegen]] emits the same semantics
  * as Java for generated fused operators.
  *
  * Sparse-safety follows the paper's terminology: an op is sparse-safe
  * w.r.t. an input if a zero in that input forces a zero output, so a
  * fused operator may iterate only the non-zeros of that input
  * ("sparse driver", Fig. 1(d)).
  */
object Ops {

  sealed trait UnaryOp extends Serializable {
    def apply(x: Double): Double
    /** f(0) == 0, so the op preserves sparsity of its input. */
    def sparseSafe: Boolean
    def name: String
  }
  case object Exp     extends UnaryOp { def apply(x: Double) = math.exp(x);            val sparseSafe = false; val name = "exp" }
  case object Log     extends UnaryOp { def apply(x: Double) = math.log(x);            val sparseSafe = false; val name = "log" }
  case object Sqrt    extends UnaryOp { def apply(x: Double) = math.sqrt(x);           val sparseSafe = true;  val name = "sqrt" }
  case object Abs     extends UnaryOp { def apply(x: Double) = math.abs(x);            val sparseSafe = true;  val name = "abs" }
  case object Sign    extends UnaryOp { def apply(x: Double) = math.signum(x);         val sparseSafe = true;  val name = "sign" }
  case object Neg     extends UnaryOp { def apply(x: Double) = -x;                     val sparseSafe = true;  val name = "neg" }
  case object Sigmoid extends UnaryOp { def apply(x: Double) = 1.0 / (1.0 + math.exp(-x)); val sparseSafe = false; val name = "sigmoid" }
  case object Neq0    extends UnaryOp { def apply(x: Double) = if (x != 0.0) 1.0 else 0.0; val sparseSafe = true; val name = "!=0" }
  case object Pow2    extends UnaryOp { def apply(x: Double) = x * x;                  val sparseSafe = true;  val name = "^2" }

  sealed trait BinaryOp extends Serializable {
    def apply(x: Double, y: Double): Double
    /** f(0, y) == 0 for all y — left input can drive sparse iteration. */
    def sparseSafeLeft: Boolean
    /** f(x, 0) == 0 for all x. */
    def sparseSafeRight: Boolean
    def name: String
  }
  case object Plus  extends BinaryOp { def apply(x: Double, y: Double) = x + y; val sparseSafeLeft = false; val sparseSafeRight = false; val name = "+" }
  case object Minus extends BinaryOp { def apply(x: Double, y: Double) = x - y; val sparseSafeLeft = false; val sparseSafeRight = false; val name = "-" }
  case object Mult  extends BinaryOp { def apply(x: Double, y: Double) = x * y; val sparseSafeLeft = true;  val sparseSafeRight = true;  val name = "*" }
  case object Div   extends BinaryOp { def apply(x: Double, y: Double) = x / y; val sparseSafeLeft = true;  val sparseSafeRight = false; val name = "/" }
  case object Pow   extends BinaryOp { def apply(x: Double, y: Double) = math.pow(x, y); val sparseSafeLeft = false; val sparseSafeRight = false; val name = "^" }
  case object MinOp extends BinaryOp { def apply(x: Double, y: Double) = math.min(x, y); val sparseSafeLeft = false; val sparseSafeRight = false; val name = "min" }
  case object MaxOp extends BinaryOp { def apply(x: Double, y: Double) = math.max(x, y); val sparseSafeLeft = false; val sparseSafeRight = false; val name = "max" }
  case object Neq   extends BinaryOp { def apply(x: Double, y: Double) = if (x != y) 1.0 else 0.0; val sparseSafeLeft = false; val sparseSafeRight = false; val name = "!=" }
  case object Eq    extends BinaryOp { def apply(x: Double, y: Double) = if (x == y) 1.0 else 0.0; val sparseSafeLeft = false; val sparseSafeRight = false; val name = "==" }
  case object Gt    extends BinaryOp { def apply(x: Double, y: Double) = if (x > y)  1.0 else 0.0; val sparseSafeLeft = false; val sparseSafeRight = false; val name = ">" }
  case object Lt    extends BinaryOp { def apply(x: Double, y: Double) = if (x < y)  1.0 else 0.0; val sparseSafeLeft = false; val sparseSafeRight = false; val name = "<" }
  case object Ge    extends BinaryOp { def apply(x: Double, y: Double) = if (x >= y) 1.0 else 0.0; val sparseSafeLeft = false; val sparseSafeRight = false; val name = ">=" }
  case object Le    extends BinaryOp { def apply(x: Double, y: Double) = if (x <= y) 1.0 else 0.0; val sparseSafeLeft = false; val sparseSafeRight = false; val name = "<=" }

  /** Aggregation function of an Agg HOP / template close. */
  sealed trait AggFunc extends Serializable {
    def init: Double
    def apply(acc: Double, x: Double): Double
    def name: String
  }
  case object SumAgg extends AggFunc { val init = 0.0;                      def apply(a: Double, x: Double) = a + x;          val name = "sum" }
  case object MinAgg extends AggFunc { val init = Double.PositiveInfinity; def apply(a: Double, x: Double) = math.min(a, x); val name = "min" }
  case object MaxAgg extends AggFunc { val init = Double.NegativeInfinity; def apply(a: Double, x: Double) = math.max(a, x); val name = "max" }

  /** Aggregation direction: full scalar, per-row (n x 1), per-column (1 x m). */
  sealed trait AggDir extends Serializable { def name: String }
  case object FullDir extends AggDir { val name = "full" }
  case object RowDir  extends AggDir { val name = "row" }
  case object ColDir  extends AggDir { val name = "col" }
}
