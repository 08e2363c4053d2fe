package repro

import repro.domtree.DominatorTree
import scala.collection.mutable.ArrayBuffer

/** The n-sized state of the sampled-world kernels for graphs of `n`
  * vertices, kept per thread and reused by every job on such a graph, so
  * that a job costs what its worlds reach, not O(n).
  *
  * Between uses every kernel leaves it clean: `ws.dfn` is −1, `acc` is 0.0
  * and `mask` is false everywhere; a kernel restores only the entries it
  * touched. The other arrays grow with the largest reach so far and carry
  * no state from one use to the next.
  */
final class Scratch(val n: Int) {
  /** The walk's and the dominator tree's workspace. */
  val ws = new DominatorTree.Workspace(n)
  /** Δ sums by vertex. */
  private[repro] val acc = new Array[Double](n)
  /** The blocked mask of [[blocking]]. */
  private[repro] val mask = new Array[Boolean](n)
  /** The vertices whose Δ sums a slice has touched, in first-touch order. */
  private[repro] var touched = new Array[Int](16)
  /** The Monte-Carlo sweep's CSR of a world over its dfns and its walk state. */
  private[repro] var off, adj, vis, stack, front = Array.emptyIntArray

  /** `body` on `mask` with the vertices `blocked` (ascending ids) set; the
    * mask is clean again when `body` returns.
    */
  def blocking[R](blocked: Array[Int])(body: Array[Boolean] => R): R = {
    blocked.foreach(mask(_) = true)
    val r = body(mask)
    blocked.foreach(mask(_) = false)
    r
  }
}

object Scratch {

  /** How many scratches, each for its own n, a thread keeps. */
  private val Cached = 4

  /** Each thread's scratches, most recently used first. */
  private val kept = ThreadLocal.withInitial[ArrayBuffer[Scratch]](() => ArrayBuffer.empty[Scratch])

  /** `body` on this thread's scratch for `n` vertices, a new one if it has
    * none. The scratch is taken out of the thread's [[Cached]] most recently
    * used ones and put back only when `body` returns, so one that `body`
    * left dirty by throwing is dropped, and a nested call gets a scratch of
    * its own.
    */
  def using[R](n: Int)(body: Scratch => R): R = {
    val mine = kept.get
    val i = mine.indexWhere(_.n == n)
    val s = if (i >= 0) mine.remove(i) else new Scratch(n)
    val r = body(s)
    mine.prepend(s)
    if (mine.length > Cached) mine.remove(mine.length - 1)
    r
  }

  /** The ascending ids of the vertices set in `mask` (null: none). */
  def idsOf(mask: Array[Boolean]): Array[Int] =
    if (mask == null) Array.emptyIntArray else mask.indices.filter(mask(_)).toArray

  /** Reject a blocked set that is not ascending distinct ids in `[0, n)`. */
  def checkBlocked(n: Int, ids: Array[Int]): Unit = {
    var i = 0
    while (i < ids.length) {
      require(ids(i) >= 0 && ids(i) < n, s"blocker ${ids(i)} out of range [0, $n)")
      require(i == 0 || ids(i - 1) < ids(i), "blocked ids must ascend without repeats")
      i += 1
    }
  }
}
