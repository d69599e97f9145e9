package repro.core

import repro.index.{HierarchyIndex, Indexes, PostingIndex}

/** Decompose Paths and Lookup Indices (§4.2.2, Algorithm 1), over the
  * packed posting index. Posting lists are the quintuples `(sid, tid, lo,
  * hi, depth)`, held as sorted row numbers of [[PostingIndex]]; every join
  * is a merge within one sentence, with exactly the paper's conditions:
  *
  *  - word-path join: `x₁=x₂ ∧ u₁≤u₂ ∧ v₁≥v₂ ∧ l₂≥l₁+gap` (Example 4.4);
  *  - P₁⋈P₂ (PL vs POS postings): same token, `x₁=x₂ ∧ y₁=y₂`;
  *  - P⋈Q: same token if the path ends in a word, else the P quintuple
  *    must be a descendant of Q's last word with the residual depth gap.
  *
  * Path words match exactly; word atoms of span definitions match
  * ignoring case, as the sentence evaluator does.
  */
object Dpli {

  /** Rows `b` of `right` with some row `a` of `left` in the same sentence
    * such that `cond(a, b)`. Both lists are sorted; so is the result.
    */
  private def within(idx: PostingIndex, left: Array[Int], right: Array[Int])(
      cond: (Int, Int) => Boolean): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    right.foreach { b =>
      val s = idx.sent(b)
      while (i < left.length && idx.sent(left(i)) < s) i += 1
      var k = i
      var hit = false
      while (!hit && k < left.length && idx.sent(left(k)) == s) {
        hit = cond(left(k), b)
        k += 1
      }
      if (hit) out += b
    }
    out.result()
  }

  /** Rows of `p` in the subtree of a row of `q` and at least `gap` levels
    * below it: `x₁=x₂ ∧ u₁≤u₂ ∧ v₁≥v₂ ∧ l₂≥l₁+gap`.
    */
  private def below(idx: PostingIndex, q: Array[Int], p: Array[Int], gap: Int): Array[Int] =
    within(idx, q, p)((a, b) =>
      idx.lo(b) >= idx.lo(a) && idx.hi(b) <= idx.hi(a) && idx.depth(b) >= idx.depth(a) + gap)

  /** Word-path lookup: successive word-index accesses joined left to
    * right with the ancestor-descendant + depth-gap condition. Returns
    * the postings of the last word on the path.
    */
  def lookupWordPath(built: Indexes.Built, words: Seq[(Int, String)]): Option[Array[Int]] = {
    val idx = built.postings
    words.headOption.map { case (first, w0) =>
      words.tail.foldLeft((idx.word(w0), first)) { case ((cur, prevIdx), (i, w)) =>
        (below(idx, cur, idx.word(w), i - prevIdx), i)
      }._1
    }
  }

  /** Matching dataguide node ids for one side of the multi-index; None
    * when the pattern is all-wildcards (no pruning power).
    */
  private def hierIds(
      built: Indexes.Built,
      useParseLabels: Boolean,
      pat: Seq[HierarchyIndex.PatStep]): Option[Seq[Int]] =
    if (HierarchyIndex.isTrivial(pat)) None
    else {
      val nodes = if (useParseLabels) built.plNodes else built.posNodes
      Some(HierarchyIndex.matchingIds(nodes, pat))
    }

  /** Candidate bindings for one dominant path: lookups on the PL, POS and
    * word indices joined per Algorithm 1. Because W stores both `plId`
    * and `posId` (§6.2.1), P₁⋈P₂ — "quintuples that refer to the same
    * token" — reads the shorter of the two posting lists and probes the
    * other id of each row. A path absent from an index has no matching
    * node and so an empty answer (§4.2.2 Discussion). Falls back to every
    * posting only when the path constrains nothing (a descendant-axis
    * wildcard).
    */
  def lookup(built: Indexes.Built, dec: PathDecomposer.Decomposed): Array[Int] = {
    val idx = built.postings
    val p = (hierIds(built, useParseLabels = true, dec.pl),
      hierIds(built, useParseLabels = false, dec.pos)) match {
      case (None, None) => None
      case (Some(pl), None) => Some(idx.plPostings(pl))
      case (None, Some(pos)) => Some(idx.posPostings(pos))
      case (Some(pl), Some(pos)) =>
        if (idx.plCount(pl) <= idx.posCount(pos)) {
          val ids = pos.toSet
          Some(idx.plPostings(pl).filter(r => ids(idx.posId(r))))
        } else {
          val ids = pl.toSet
          Some(idx.posPostings(pos).filter(r => ids(idx.plId(r))))
        }
    }
    val q = lookupWordPath(built, dec.words)
    lazy val gap = (dec.nSteps - 1) - dec.words.last._1
    (p, q) match {
      case (Some(pr), Some(qr)) =>
        if (dec.lastIsWord) within(idx, qr, pr)(_ == _) else below(idx, qr, pr, gap)
      case (Some(pr), None) => pr
      case (None, Some(qr)) =>
        if (dec.lastIsWord) qr
        else {
          // word followed by wildcard steps: all tokens below the last
          // word with the residual depth gap, read from its sentences only
          val rows = qr.map(idx.sent).distinct.flatMap(idx.sentRows)
          below(idx, qr, rows, gap)
        }
      case (None, None) => Array.range(0, idx.nRows)
    }
  }

  private def intersect(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = Array.newBuilder[Long]
    var i = 0
    var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { out += a(i); i += 1; j += 1 }
    }
    out.result()
  }

  /** Per-variable pruning items, each a sorted array of distinct sids:
    * dominant node paths, span-atom paths and words, and entity mentions
    * for free entity variables.
    */
  def pruningSids(built: Indexes.Built, nq: Normalizer.NormQuery): Seq[Array[Long]] = {
    val idx = built.postings
    def pathSids(p: Ast.PathExpr) = idx.sidsOf(lookup(built, PathDecomposer.decompose(p)))
    val nodePaths = nq.nodeDefs.map(d => d.name -> d.path)
    val byName = nodePaths.toMap
    val dominant = PathDecomposer.dominantOf(nodePaths).values.toSet.toSeq.sorted
    val fromNodes = dominant.map(n => pathSids(byName(n)))
    val fromAtoms = nq.spanDefs.flatMap(_.atoms).flatMap {
      case Ast.APath(p) if p.isAbsolute => Some(pathSids(p))
      case Ast.AWords(ws) =>
        ws.find(_.exists(_.isLetterOrDigit)).map(w => idx.sidsOf(idx.wordIgnoreCase(w)))
      case _ => None
    }
    val fromEnts = nq.freeEnts.map(o => idx.entity(o.typ))
    fromNodes ++ fromAtoms ++ fromEnts
  }

  /** Candidate sentence ids (sorted) after DPLI: the intersection of the
    * pruning items, shortest first; None means "no pruning possible"
    * (empty extract clause — all sentences are considered, §4.3).
    */
  def candidates(built: Indexes.Built, nq: Normalizer.NormQuery): Option[Array[Long]] = {
    val items = pruningSids(built, nq).sortBy(_.length)
    items.reduceOption(intersect)
  }
}
