"""Independent reference implementations used only by the test suite.

These are deliberately naive: plain dict/Counter code, full DP matrices, no
caching, no shared helpers with the package under test. Metric semantics
follow the public reference scorer: corpus BLEU-4 with exponential smoothing,
character F-score with macro-averaged precision/recall over orders 1..6, and
the greedy block-shift + word edit distance procedure for the edit rate.
"""

import math
import re
import unicodedata
from collections import Counter, defaultdict

import numpy as np

from ettmt.ngram import CONTEXT_ETT_ENG, EOS, PAD, NaiveBayesModel, NgramModel
from ettmt.tokenize import MIN_ROOT_LEN


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def oracle_bleu(hypotheses, references):
    correct = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    sys_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        htoks = hyp.split()
        rtoks = ref.split()
        sys_len += len(htoks)
        ref_len += len(rtoks)
        for n in range(1, 5):
            hgrams = Counter(tuple(htoks[i : i + n]) for i in range(len(htoks) - n + 1))
            rgrams = Counter(tuple(rtoks[i : i + n]) for i in range(len(rtoks) - n + 1))
            for gram, count in hgrams.items():
                total[n - 1] += count
                correct[n - 1] += min(count, rgrams.get(gram, 0))
    precisions = [0.0, 0.0, 0.0, 0.0]
    smooth = 1.0
    for n in range(1, 5):
        if total[n - 1] == 0:
            break
        if correct[n - 1] == 0:
            smooth *= 2.0
            precisions[n - 1] = 100.0 / (smooth * total[n - 1])
        else:
            precisions[n - 1] = 100.0 * correct[n - 1] / total[n - 1]
    if sys_len < ref_len:
        bp = math.exp(1.0 - ref_len / sys_len) if sys_len > 0 else 0.0
    else:
        bp = 1.0
    log_sum = sum(math.log(p) if p > 0.0 else -9999999999.0 for p in precisions)
    return bp * math.exp(log_sum / 4.0)


# ---------------------------------------------------------------------------
# Character F-score
# ---------------------------------------------------------------------------

def oracle_chrf(hypotheses, references, order=6, beta=2.0):
    stats = [0] * (3 * order)
    for hyp, ref in zip(hypotheses, references):
        h = re.sub(r"\s+", "", hyp.strip())
        r = re.sub(r"\s+", "", ref.strip())
        for i in range(order):
            n = i + 1
            hgrams = Counter(h[k : k + n] for k in range(len(h) - n + 1))
            rgrams = Counter(r[k : k + n] for k in range(len(r) - n + 1))
            stats[3 * i + 0] += sum(hgrams.values())
            stats[3 * i + 1] += sum(rgrams.values())
            stats[3 * i + 2] += sum((hgrams & rgrams).values())
    avg_prec = 0.0
    avg_rec = 0.0
    effective = 0
    for i in range(order):
        if stats[3 * i] > 0 and stats[3 * i + 1] > 0:
            avg_prec += stats[3 * i + 2] / stats[3 * i]
            avg_rec += stats[3 * i + 2] / stats[3 * i + 1]
            effective += 1
    if effective == 0:
        return 0.0
    avg_prec /= effective
    avg_rec /= effective
    if avg_prec + avg_rec == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1 + b2) * avg_prec * avg_rec / (b2 * avg_prec + avg_rec)


# ---------------------------------------------------------------------------
# Translation edit rate
# ---------------------------------------------------------------------------

_MAX_SHIFT_SIZE = 10
_MAX_SHIFT_DIST = 50
_MAX_SHIFT_CANDIDATES = 1000


def _edit_trace(hyp, ref):
    """Full-matrix DP transforming hyp into ref.

    Returns (distance, op string) where ops are ' ' match, 's' substitute,
    'i' insert reference word, 'd' delete hypothesis word. Ties prefer the
    diagonal, then insertion, then deletion.
    """
    n, m = len(hyp), len(ref)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    op = [[""] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        dist[0][j] = j
        op[0][j] = "i"
    for i in range(1, n + 1):
        dist[i][0] = i
        op[i][0] = "d"
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if hyp[i - 1] == ref[j - 1]:
                best, bop = dist[i - 1][j - 1], " "
            else:
                best, bop = dist[i - 1][j - 1] + 1, "s"
            if dist[i][j - 1] + 1 < best:
                best, bop = dist[i][j - 1] + 1, "i"
            if dist[i - 1][j] + 1 < best:
                best, bop = dist[i - 1][j] + 1, "d"
            dist[i][j] = best
            op[i][j] = bop
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        o = op[i][j]
        ops.append(o)
        if o in (" ", "s"):
            i -= 1
            j -= 1
        elif o == "i":
            j -= 1
        else:
            i -= 1
    return dist[n][m], "".join(reversed(ops))


def _trace_alignment(trace):
    """Alignment ref position -> hyp position, plus per-word error flags."""
    align = {}
    hyp_err = []
    ref_err = []
    hpos = -1
    rpos = -1
    for o in trace:
        if o in (" ", "s"):
            hpos += 1
            rpos += 1
            align[rpos] = hpos
            err = 0 if o == " " else 1
            hyp_err.append(err)
            ref_err.append(err)
        elif o == "i":
            rpos += 1
            align[rpos] = hpos
            ref_err.append(1)
        else:
            hpos += 1
            hyp_err.append(1)
    return align, hyp_err, ref_err


def _matching_spans(hyp, ref):
    for start_h in range(len(hyp)):
        for start_r in range(len(ref)):
            if abs(start_r - start_h) > _MAX_SHIFT_DIST:
                continue
            length = 0
            while (
                start_h + length < len(hyp)
                and start_r + length < len(ref)
                and hyp[start_h + length] == ref[start_r + length]
                and length < _MAX_SHIFT_SIZE
            ):
                length += 1
                yield start_h, start_r, length


def _apply_shift(words, start, length, target):
    if target < start:
        return words[:target] + words[start : start + length] + words[target:start] + words[start + length :]
    if target > start + length:
        return words[:start] + words[start + length : target] + words[start : start + length] + words[target:]
    return list(words)


def _best_shift(hyp, ref, checked):
    pre, trace = _edit_trace(hyp, ref)
    align, hyp_err, ref_err = _trace_alignment(trace)
    best = None
    for start_h, start_r, length in _matching_spans(hyp, ref):
        if sum(hyp_err[start_h : start_h + length]) == 0:
            continue
        if sum(ref_err[start_r : start_r + length]) == 0:
            continue
        if start_h <= align[start_r] < start_h + length:
            continue
        prev_idx = -1
        for offset in range(-1, length):
            if start_r + offset == -1:
                idx = 0
            elif start_r + offset in align:
                idx = align[start_r + offset] + 1
            else:
                break
            if idx == prev_idx:
                continue
            prev_idx = idx
            shifted = _apply_shift(hyp, start_h, length, idx)
            candidate = (pre - _edit_trace(shifted, ref)[0], length, -start_h, -idx, shifted)
            checked += 1
            if best is None or candidate > best:
                best = candidate
            if checked >= _MAX_SHIFT_CANDIDATES:
                break
        if checked >= _MAX_SHIFT_CANDIDATES:
            break
    if best is None:
        return 0, hyp, checked
    return best[0], best[4], checked


def oracle_ter_edits(hyp_words, ref_words):
    """Edits for one pair: greedy block shifts plus final edit distance."""
    if not ref_words:
        return len(hyp_words)
    words = list(hyp_words)
    shifts = 0
    checked = 0
    while True:
        delta, shifted, checked = _best_shift(words, ref_words, checked)
        if checked >= _MAX_SHIFT_CANDIDATES:
            break
        if delta <= 0:
            break
        shifts += 1
        words = shifted
    return shifts + _edit_trace(words, ref_words)[0]


def oracle_ter(hypotheses, references):
    edits = 0
    ref_words = 0
    for hyp, ref in zip(hypotheses, references):
        h = hyp.split()
        r = ref.split()
        edits += oracle_ter_edits(h, r)
        ref_words += len(r)
    return 100.0 * edits / ref_words


# ---------------------------------------------------------------------------
# Dense ranks
# ---------------------------------------------------------------------------

def oracle_dense_rank(keys):
    """Each key's index among the sorted distinct keys, and those keys."""
    distinct = sorted(set(keys))
    index = {key: i for i, key in enumerate(distinct)}
    return [index[key] for key in keys], distinct


# ---------------------------------------------------------------------------
# The package's former metric implementations
# ---------------------------------------------------------------------------
#
# BLEU, chr-F and TER as ettmt computed them before counting all n-gram
# orders at once and running the edit distance bit-parallel, kept verbatim
# apart from names: ``former_*`` for the functions the tests call, the pure
# edit-distance loop (its numba and numpy twins computed the same) in place
# of the kernel, and ``_apply_shift`` above for the identical block move.
# The package must return exactly what these return.

_BLEU_ORDER = 4
_CHRF_ORDER = 6
_CHRF_BETA = 2.0
_MATCH, _SUB, _INS, _DEL = 0, 1, 2, 3


def levenshtein_loop(a, b):
    n = a.shape[0]
    m = b.shape[0]
    if n == 0:
        return m
    if m == 0:
        return n
    prev = np.arange(m + 1, dtype=np.int64)
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        cur[0] = i
        ai = a[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ai == b[j - 1] else 1
            best = prev[j - 1] + cost
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
        prev, cur = cur, prev
    return prev[m]


def _former_check_corpus(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")


def _former_ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def former_bleu(hypotheses: list[str], references: list[str]) -> float:
    """Corpus BLEU-4 in [0, 100] with exponential smoothing of zero counts."""
    _former_check_corpus(hypotheses, references)
    correct = np.zeros(_BLEU_ORDER, dtype=np.int64)
    total = np.zeros(_BLEU_ORDER, dtype=np.int64)
    sys_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        htoks = hyp.split()
        rtoks = ref.split()
        sys_len += len(htoks)
        ref_len += len(rtoks)
        for n in range(1, _BLEU_ORDER + 1):
            hgrams = _former_ngram_counts(htoks, n)
            if not hgrams:
                break
            total[n - 1] += sum(hgrams.values())
            correct[n - 1] += sum((hgrams & _former_ngram_counts(rtoks, n)).values())

    precisions = np.zeros(_BLEU_ORDER)
    smooth = 1.0
    for n in range(_BLEU_ORDER):
        if total[n] == 0:
            break
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 100.0 / (smooth * total[n])
        else:
            precisions[n] = 100.0 * correct[n] / total[n]

    if sys_len == 0:
        return 0.0
    penalty = math.exp(1.0 - ref_len / sys_len) if sys_len < ref_len else 1.0
    if np.any(precisions == 0.0):
        return 0.0
    score = penalty * math.exp(float(np.log(precisions).mean()))
    # the geometric mean can drift a few ulp past the mathematical bound
    return min(score, 100.0)


def _former_char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def former_chrf(hypotheses: list[str], references: list[str]) -> float:
    """Corpus character F-score in [0, 100], order 6, beta 2, spaces removed."""
    _former_check_corpus(hypotheses, references)
    hyp_totals = np.zeros(_CHRF_ORDER, dtype=np.int64)
    ref_totals = np.zeros(_CHRF_ORDER, dtype=np.int64)
    matches = np.zeros(_CHRF_ORDER, dtype=np.int64)
    for hyp, ref in zip(hypotheses, references):
        h = "".join(hyp.split())
        r = "".join(ref.split())
        for n in range(1, _CHRF_ORDER + 1):
            hgrams = _former_char_ngrams(h, n)
            rgrams = _former_char_ngrams(r, n)
            hyp_totals[n - 1] += sum(hgrams.values())
            ref_totals[n - 1] += sum(rgrams.values())
            matches[n - 1] += sum((hgrams & rgrams).values())

    effective = (hyp_totals > 0) & (ref_totals > 0)
    if not effective.any():
        return 0.0
    precision = float((matches[effective] / hyp_totals[effective]).mean())
    recall = float((matches[effective] / ref_totals[effective]).mean())
    if precision + recall == 0.0:
        return 0.0
    b2 = _CHRF_BETA * _CHRF_BETA
    return 100.0 * (1.0 + b2) * precision * recall / (b2 * precision + recall)


def former_edit_ops(hyp: list[int], ref: list[int]) -> tuple[int, list[int]]:
    """Edit distance with the operation path transforming hyp into ref.

    Tie order is diagonal first, then reference insertion, then hypothesis
    deletion, which pins down a unique alignment for the shift search.
    """
    n, m = len(hyp), len(ref)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    op = np.zeros((n + 1, m + 1), dtype=np.int8)
    dist[0, :] = np.arange(m + 1)
    op[0, 1:] = _INS
    dist[1:, 0] = np.arange(1, n + 1)
    op[1:, 0] = _DEL
    for i in range(1, n + 1):
        hi = hyp[i - 1]
        row = dist[i]
        above = dist[i - 1]
        for j in range(1, m + 1):
            if hi == ref[j - 1]:
                best = above[j - 1]
                which = _MATCH
            else:
                best = above[j - 1] + 1
                which = _SUB
            if row[j - 1] + 1 < best:
                best = row[j - 1] + 1
                which = _INS
            if above[j] + 1 < best:
                best = above[j] + 1
                which = _DEL
            row[j] = best
            op[i, j] = which
    path = []
    i, j = n, m
    while i > 0 or j > 0:
        o = op[i, j]
        path.append(int(o))
        if o in (_MATCH, _SUB):
            i -= 1
            j -= 1
        elif o == _INS:
            j -= 1
        else:
            i -= 1
    path.reverse()
    return int(dist[n, m]), path


def _former_path_alignment(path: list[int]):
    """Per-word error flags and the ref-position -> hyp-position map."""
    align: dict[int, int] = {}
    hyp_err: list[int] = []
    ref_err: list[int] = []
    hpos = rpos = -1
    for o in path:
        if o == _MATCH or o == _SUB:
            hpos += 1
            rpos += 1
            align[rpos] = hpos
            hyp_err.append(0 if o == _MATCH else 1)
            ref_err.append(0 if o == _MATCH else 1)
        elif o == _INS:
            rpos += 1
            align[rpos] = hpos
            ref_err.append(1)
        else:
            hpos += 1
            hyp_err.append(1)
    return align, hyp_err, ref_err


def former_shift_candidates(hyp: list[int], ref: list[int]):
    """All (hyp start, ref start, length) with equal word spans, tercom bounds."""
    n, m = len(hyp), len(ref)
    for sh in range(n):
        for sr in range(m):
            if abs(sr - sh) > _MAX_SHIFT_DIST:
                continue
            k = 0
            while sh + k < n and sr + k < m and k < _MAX_SHIFT_SIZE and hyp[sh + k] == ref[sr + k]:
                k += 1
                yield sh, sr, k


def former_pair_edits(hyp_words: list[str], ref_words: list[str]) -> int:
    """Edits for one segment pair: greedy block shifts + final edit distance."""
    if not ref_words:
        return len(hyp_words)
    if not hyp_words:
        return len(ref_words)
    vocab: dict[str, int] = {}
    hyp = [vocab.setdefault(w, len(vocab)) for w in hyp_words]
    ref = [vocab.setdefault(w, len(vocab)) for w in ref_words]
    ref_arr = np.asarray(ref, dtype=np.int32)

    shifts = 0
    checked = 0
    while True:
        pre, path = former_edit_ops(hyp, ref)
        align, hyp_err, ref_err = _former_path_alignment(path)
        best = None
        for sh, sr, length in former_shift_candidates(hyp, ref):
            if not any(hyp_err[sh : sh + length]):
                continue
            if not any(ref_err[sr : sr + length]):
                continue
            if sh <= align[sr] < sh + length:
                continue
            prev_target = -1
            for offset in range(-1, length):
                anchor = sr + offset
                if anchor == -1:
                    target = 0
                elif anchor in align:
                    target = align[anchor] + 1
                else:
                    break
                if target == prev_target:
                    continue
                prev_target = target
                moved = _apply_shift(hyp, sh, length, target)
                gain = pre - int(
                    levenshtein_loop(np.asarray(moved, dtype=np.int32), ref_arr)
                )
                checked += 1
                candidate = (gain, length, -sh, -target, moved)
                if best is None or candidate > best:
                    best = candidate
                if checked >= _MAX_SHIFT_CANDIDATES:
                    break
            if checked >= _MAX_SHIFT_CANDIDATES:
                break
        if best is None or checked >= _MAX_SHIFT_CANDIDATES or best[0] <= 0:
            return shifts + pre
        hyp = best[4]
        shifts += 1


def former_ter(hypotheses: list[str], references: list[str]) -> float:
    """Corpus translation edit rate: 100 * edits / reference words."""
    _former_check_corpus(hypotheses, references)
    total_edits = 0
    total_ref_words = 0
    for hyp, ref in zip(hypotheses, references):
        rtoks = ref.split()
        total_edits += former_pair_edits(hyp.split(), rtoks)
        total_ref_words += len(rtoks)
    if total_ref_words == 0:
        raise ValueError("references contain zero words in total")
    return 100.0 * total_edits / total_ref_words


# ---------------------------------------------------------------------------
# Lexical-alignment EM, textbook dict formulation
# ---------------------------------------------------------------------------

NULL = "<null>"


def oracle_ibm1(pairs, iterations):
    """Plain dict EM for the position-blind lexical model.

    Returns (t, loglik_history) with t[(f, e)] = P(e | f); every source
    sentence gains a virtual NULL word. The log-likelihood recorded for an
    iteration is evaluated under the table entering that iteration.
    """
    tgt_vocab = sorted({e for _, eng in pairs for e in eng})
    uniform = 1.0 / len(tgt_vocab)
    t = {}
    for ett, eng in pairs:
        for f in [NULL] + list(ett):
            for e in eng:
                t[(f, e)] = uniform
    history = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        loglik = 0.0
        for ett, eng in pairs:
            src = [NULL] + list(ett)
            for e in eng:
                denom = sum(t[(f, e)] for f in src)
                loglik += math.log(denom / len(src))
                for f in src:
                    delta = t[(f, e)] / denom
                    counts[(f, e)] += delta
                    totals[f] += delta
        history.append(loglik)
        t = {pair: c / totals[pair[0]] for pair, c in counts.items()}
    return t, history


def oracle_ibm1_loglik(t, pairs):
    loglik = 0.0
    for ett, eng in pairs:
        src = [NULL] + list(ett)
        for e in eng:
            loglik += math.log(sum(t.get((f, e), 0.0) for f in src) / len(src))
    return loglik


# ---------------------------------------------------------------------------
# Per-pair EM expected counts and the trainer around them
# ---------------------------------------------------------------------------
#
# The E-steps below are the package's former kernels, kept verbatim: a pure
# loop per kernel and the per-pair numpy version.  ettmt now runs its E-steps on link arrays built once per
# training; ``oracle_train_ibm`` is the former trainer around the numpy
# versions, whose tables the package must reproduce bit for bit.

# ---------------------------------------------------------------------------
# EM expected counts, lexical model (position-blind)
# ---------------------------------------------------------------------------

def ibm1_estep_loop(
    src_flat, src_indptr, tgt_flat, tgt_indptr, t_indptr, t_cols, t_vals, counts, recv
):
    loglik = 0.0
    n_pairs = src_indptr.shape[0] - 1
    for p in range(n_pairs):
        s0 = src_indptr[p]
        s1 = src_indptr[p + 1]
        t0 = tgt_indptr[p]
        t1 = tgt_indptr[p + 1]
        n_src = s1 - s0
        for jt in range(t0, t1):
            e = tgt_flat[jt]
            denom = 0.0
            for it in range(s0, s1):
                f = src_flat[it]
                lo = t_indptr[f]
                hi = t_indptr[f + 1]
                k = lo + np.searchsorted(t_cols[lo:hi], e)
                denom += t_vals[k]
            loglik += math.log(denom / n_src)
            for it in range(s0, s1):
                f = src_flat[it]
                lo = t_indptr[f]
                hi = t_indptr[f + 1]
                k = lo + np.searchsorted(t_cols[lo:hi], e)
                delta = t_vals[k] / denom
                counts[k] += delta
                recv[it] += delta
    return loglik



def ibm1_estep_np(
    src_flat, src_indptr, tgt_flat, tgt_indptr, t_indptr, t_cols, t_vals, counts, recv
):
    loglik = 0.0
    n_pairs = src_indptr.shape[0] - 1
    for p in range(n_pairs):
        f = src_flat[src_indptr[p] : src_indptr[p + 1]]
        e = tgt_flat[tgt_indptr[p] : tgt_indptr[p + 1]]
        if e.shape[0] == 0:
            continue
        # flat t-table positions for every (source pos, target pos) combination
        lo = t_indptr[f]
        pos = np.empty((f.shape[0], e.shape[0]), dtype=np.int64)
        for i in range(f.shape[0]):
            row = t_cols[t_indptr[f[i]] : t_indptr[f[i] + 1]]
            pos[i] = lo[i] + np.searchsorted(row, e)
        probs = t_vals[pos]
        denom = probs.sum(axis=0)
        loglik += float(np.log(denom / f.shape[0]).sum())
        delta = probs / denom
        np.add.at(counts, pos, delta)
        recv[src_indptr[p] : src_indptr[p + 1]] += delta.sum(axis=1)
    return loglik


# ---------------------------------------------------------------------------
# EM expected counts, lexical + position model
# ---------------------------------------------------------------------------
#
# The position table is flattened: for a pair whose block starts at
# align_bases[p], entry (target position jt, source position i) lives at
# base + jt * n_src + i, with n_src counting the virtual empty source slot.

def ibm2_estep_loop(
    src_flat,
    src_indptr,
    tgt_flat,
    tgt_indptr,
    align_bases,
    t_indptr,
    t_cols,
    t_vals,
    a_vals,
    counts,
    a_counts,
    recv,
):
    loglik = 0.0
    n_pairs = src_indptr.shape[0] - 1
    for p in range(n_pairs):
        s0 = src_indptr[p]
        s1 = src_indptr[p + 1]
        t0 = tgt_indptr[p]
        t1 = tgt_indptr[p + 1]
        n_src = s1 - s0
        base = align_bases[p]
        for jt in range(t1 - t0):
            e = tgt_flat[t0 + jt]
            arow = base + jt * n_src
            denom = 0.0
            for i in range(n_src):
                f = src_flat[s0 + i]
                lo = t_indptr[f]
                hi = t_indptr[f + 1]
                k = lo + np.searchsorted(t_cols[lo:hi], e)
                denom += t_vals[k] * a_vals[arow + i]
            loglik += math.log(denom)
            for i in range(n_src):
                f = src_flat[s0 + i]
                lo = t_indptr[f]
                hi = t_indptr[f + 1]
                k = lo + np.searchsorted(t_cols[lo:hi], e)
                delta = t_vals[k] * a_vals[arow + i] / denom
                counts[k] += delta
                a_counts[arow + i] += delta
                recv[s0 + i] += delta
    return loglik



def ibm2_estep_np(
    src_flat,
    src_indptr,
    tgt_flat,
    tgt_indptr,
    align_bases,
    t_indptr,
    t_cols,
    t_vals,
    a_vals,
    counts,
    a_counts,
    recv,
):
    loglik = 0.0
    n_pairs = src_indptr.shape[0] - 1
    for p in range(n_pairs):
        f = src_flat[src_indptr[p] : src_indptr[p + 1]]
        e = tgt_flat[tgt_indptr[p] : tgt_indptr[p + 1]]
        n_src = f.shape[0]
        n_tgt = e.shape[0]
        if n_tgt == 0:
            continue
        base = align_bases[p]
        lo = t_indptr[f]
        pos = np.empty((n_src, n_tgt), dtype=np.int64)
        for i in range(n_src):
            row = t_cols[t_indptr[f[i]] : t_indptr[f[i] + 1]]
            pos[i] = lo[i] + np.searchsorted(row, e)
        apos = base + np.arange(n_tgt)[None, :] * n_src + np.arange(n_src)[:, None]
        probs = t_vals[pos] * a_vals[apos]
        denom = probs.sum(axis=0)
        loglik += float(np.log(denom).sum())
        delta = probs / denom
        np.add.at(counts, pos, delta)
        np.add.at(a_counts, apos, delta)
        recv[src_indptr[p] : src_indptr[p + 1]] += delta.sum(axis=1)
    return loglik


def _oracle_encode(pairs):
    source_vocab = (NULL,) + tuple(sorted({t for ett, _ in pairs for t in ett}))
    target_vocab = tuple(sorted({t for _, eng in pairs for t in eng}))
    src_index = {t: i for i, t in enumerate(source_vocab)}
    tgt_index = {t: i for i, t in enumerate(target_vocab)}
    src_flat, tgt_flat = [], []
    src_indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    tgt_indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    cooc = [set() for _ in source_vocab]
    for p, (ett, eng) in enumerate(pairs):
        fids = [0] + [src_index[t] for t in ett]
        eids = [tgt_index[t] for t in eng]
        src_flat.extend(fids)
        tgt_flat.extend(eids)
        src_indptr[p + 1] = len(src_flat)
        tgt_indptr[p + 1] = len(tgt_flat)
        for fi in fids:
            cooc[fi].update(eids)
    indptr = np.zeros(len(source_vocab) + 1, dtype=np.int64)
    cols = []
    for fi, row in enumerate(cooc):
        ordered = sorted(row)
        indptr[fi + 1] = indptr[fi] + len(ordered)
        cols.extend(ordered)
    return {
        "source_vocab": source_vocab,
        "target_vocab": target_vocab,
        "src_flat": np.asarray(src_flat, dtype=np.int32),
        "src_indptr": src_indptr,
        "tgt_flat": np.asarray(tgt_flat, dtype=np.int32),
        "tgt_indptr": tgt_indptr,
        "indptr": indptr,
        "cols": np.asarray(cols, dtype=np.int32),
    }


def oracle_ttable_layout(payload):
    """The t-table arrays of a model-file payload, built row list by row list.

    The former ``TTable.from_dict`` builder: each source's (column,
    probability) cells collected in its own list, each list sorted, and the
    row offsets added up one row at a time.  The payload must already have
    passed ``from_dict``'s checks.
    """
    entries = payload["entries"]
    source_vocab = (NULL,) + tuple(sorted({f for f, _, _ in entries} - {NULL}))
    target_vocab = tuple(sorted({e for _, e, _ in entries}))
    src_index = {t: i for i, t in enumerate(source_vocab)}
    tgt_index = {t: i for i, t in enumerate(target_vocab)}
    rows = [[] for _ in source_vocab]
    for f, e, p in entries:
        rows[src_index[f]].append((tgt_index[e], p))
    indptr = np.zeros(len(source_vocab) + 1, dtype=np.int64)
    cols, probs = [], []
    for fi, row in enumerate(rows):
        row.sort()
        indptr[fi + 1] = indptr[fi] + len(row)
        cols.extend(c for c, _ in row)
        probs.extend(p for _, p in row)
    drop = np.zeros(len(source_vocab))
    for f, d in payload.get("drop_probs", {}).items():
        if f in src_index:
            drop[src_index[f]] = d
    return {
        "source_vocab": source_vocab,
        "target_vocab": target_vocab,
        "indptr": indptr,
        "cols": np.asarray(cols, dtype=np.int32),
        "probs": np.asarray(probs, dtype=np.float64),
        "drop_probs": drop,
    }


def oracle_align_layout(pairs):
    """Each pair's position-table base, each (l_e, l_f) block's offset, and the table size.

    Blocks of (l_e, l_f + 1) values, target position major, in order of
    first appearance.
    """
    offsets = {}
    size = 0
    for ett, eng in pairs:
        shape = (len(eng), len(ett))
        if shape not in offsets:
            offsets[shape] = size
            size += shape[0] * (shape[1] + 1)
    bases = np.array([offsets[(len(eng), len(ett))] for ett, eng in pairs], dtype=np.int64)
    return bases, offsets, size


def oracle_links(src_flat, src_indptr, tgt_flat, tgt_indptr, t_indptr, t_cols, align_bases=None):
    """Every link's t-table position, position-table position and global target occurrence.

    A per-pair double loop over source position i and target position j, in
    that order.  The position-table positions are ``align_bases[p] + j *
    n_src + i`` (None without ``align_bases``).
    """
    src_flat, src_indptr, tgt_flat, tgt_indptr = (
        a.tolist() for a in (src_flat, src_indptr, tgt_flat, tgt_indptr))
    t_indptr, t_cols = t_indptr.tolist(), t_cols.tolist()
    links, a_links, link_tgt = [], [], []
    for p in range(len(src_indptr) - 1):
        n_src = src_indptr[p + 1] - src_indptr[p]
        for i in range(n_src):
            f = src_flat[src_indptr[p] + i]
            row = t_cols[t_indptr[f] : t_indptr[f + 1]]
            for j in range(tgt_indptr[p + 1] - tgt_indptr[p]):
                links.append(t_indptr[f] + row.index(tgt_flat[tgt_indptr[p] + j]))
                if align_bases is not None:
                    a_links.append(int(align_bases[p]) + j * n_src + i)
                link_tgt.append(tgt_indptr[p] + j)
    return links, (None if align_bases is None else a_links), link_tgt


def _oracle_normalize_rows(indptr, values):
    out = values.copy()
    for fi in range(len(indptr) - 1):
        lo, hi = indptr[fi], indptr[fi + 1]
        total = out[lo:hi].sum()
        if total > 0.0:
            out[lo:hi] /= total
    return out


def _oracle_drop_probs(enc, counts, recv):
    n_src = len(enc["source_vocab"])
    eps_counts = np.zeros(n_src)
    shortfall = np.maximum(0.0, 1.0 - recv)
    np.add.at(eps_counts, enc["src_flat"], shortfall)
    real = np.zeros(n_src)
    for fi in range(n_src):
        real[fi] = counts[enc["indptr"][fi] : enc["indptr"][fi + 1]].sum()
    total = eps_counts + real
    out = np.zeros(n_src)
    mask = total > 0
    out[mask] = eps_counts[mask] / total[mask]
    out[0] = 0.0
    return out


def oracle_train_ibm(pairs, iterations, model=1):
    """The former Model-1 / Model-2 trainer over ``ibm*_estep_np``.

    Returns a dict with the vocabularies, the t-table layout (``indptr``,
    ``cols``), ``probs``, ``drop_probs``, ``loglik_history`` and, for
    Model 2, the position ``blocks`` keyed by (l_e, l_f).
    """
    enc = _oracle_encode(pairs)
    layout = (enc["src_flat"], enc["src_indptr"], enc["tgt_flat"], enc["tgt_indptr"])
    probs = np.full(len(enc["cols"]), 1.0 / len(enc["target_vocab"]))
    history = []
    for _ in range(iterations + 1):
        counts = np.zeros_like(probs)
        recv = np.zeros(len(enc["src_flat"]))
        history.append(float(ibm1_estep_np(*layout, enc["indptr"], enc["cols"], probs, counts, recv)))
        if len(history) <= iterations:
            probs = _oracle_normalize_rows(enc["indptr"], counts)
    out = dict(enc, probs=probs, loglik_history=history)
    if model == 1:
        out["drop_probs"] = _oracle_drop_probs(enc, counts, recv)
        return out

    bases, offsets, size = oracle_align_layout(pairs)
    a_vals = np.zeros(size)
    for (l_e, l_f), off in offsets.items():
        a_vals[off : off + l_e * (l_f + 1)] = 1.0 / (l_f + 1)
    for it in range(iterations + 1):
        counts = np.zeros_like(probs)
        a_counts = np.zeros_like(a_vals)
        recv = np.zeros(len(enc["src_flat"]))
        history.append(float(ibm2_estep_np(
            *layout, bases, enc["indptr"], enc["cols"], probs, a_vals, counts, a_counts, recv
        )))
        if it == iterations:
            break
        probs = _oracle_normalize_rows(enc["indptr"], counts)
        for (l_e, l_f), off in offsets.items():
            block = a_counts[off : off + l_e * (l_f + 1)].reshape(l_e, l_f + 1)
            totals = block.sum(axis=1, keepdims=True)
            np.divide(block, totals, out=block, where=totals > 0)
            a_vals[off : off + l_e * (l_f + 1)] = block.reshape(-1)
    out.update(
        probs=probs,
        drop_probs=_oracle_drop_probs(enc, counts, recv),
        blocks={
            shape: a_vals[off : off + shape[0] * (shape[1] + 1)].reshape(shape[0], shape[1] + 1)
            for shape, off in offsets.items()
        },
    )
    return out


# ---------------------------------------------------------------------------
# Direct-space posterior for the factored context model
# ---------------------------------------------------------------------------

def oracle_factored_posterior(prior, conditionals, context):
    """Direct-space evaluation of prior(e) * prod_j P(ctx_j | e), normalized.

    `prior` maps target -> probability; `conditionals` is a list (one per
    context slot) of dicts target -> {value -> probability}.
    """
    scores = {}
    for target, p in prior.items():
        score = p
        for slot, value in enumerate(context):
            score *= conditionals[slot][target][value]
        scores[target] = score
    z = sum(scores.values())
    return {target: s / z for target, s in scores.items()}


# ---------------------------------------------------------------------------
# Naive-Bayes cost vectors
# ---------------------------------------------------------------------------

def _check_arity(model, src_slots: tuple) -> None:
    if len(src_slots) != model.n:
        raise ValueError(f"expected {model.n} source slots, got {len(src_slots)}")


def _left_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def former_nb_cost_tables(self) -> tuple:
    """`NaiveBayesModel._cost_tables` as it was before it formed its log arguments as arrays:
    one scalar expression and one `math.log` per cell. `self` is the model."""
    alpha = self.alpha
    prior_denom = self.total_positions + alpha * len(self.vocab)
    log_prior = np.array([_log((self.target_counts.get(t, 0) + alpha) / prior_denom) for t in self.vocab])
    index = {t: i for i, t in enumerate(self.vocab)}
    defaults, overrides = [], []
    for slot, by_target in enumerate(self.slot_counts):
        size = len(self.slot_vocabs[slot])
        defaults.append(np.array(
            [_log(alpha / (self.target_counts.get(t, 0) + alpha * size)) for t in self.vocab]
        ))
        by_value: dict[str, tuple[list[int], list[float]]] = {}
        for target, values in by_target.items():
            denom = self.target_counts.get(target, 0) + alpha * size
            for value, count in values.items():
                idx, logs = by_value.setdefault(value, ([], []))
                idx.append(index[target])
                logs.append(_log((count + alpha) / denom))
        overrides.append(
            {v: (np.array(idx, dtype=np.intp), np.array(logs)) for v, (idx, logs) in by_value.items()}
        )
    return log_prior, defaults, overrides


def former_nb_costs(self, src_slots: tuple, eng_slots: tuple = ()) -> np.ndarray:
    """`NaiveBayesModel.costs` as it was before it worked per distinct score:
    one `math.exp` and one `math.log` per target. `self` is the model."""
    _check_arity(self, src_slots)
    log_prior, defaults, overrides = self._cost_tables
    score = log_prior
    for slot, value in enumerate(tuple(src_slots) + tuple(eng_slots)):
        summed = score + defaults[slot]
        override = overrides[slot].get(value)
        if override is not None:
            idx, logs = override
            summed[idx] = score[idx] + logs
        score = summed
    weights = [math.exp(s) for s in (score - score.max()).tolist()]
    z = _left_sum(weights)
    return np.array([-math.log(w / z) for w in weights])


# ---------------------------------------------------------------------------
# Per-target n-gram and naive-Bayes distributions
# ---------------------------------------------------------------------------
#
# The package's former per-target paths, as they were apart from names and
# the totals they read from the model, which are summed here from the counts
# (exact for ints). Each model's `costs` must equal -math.log of these bit for
# bit: they make the same math.log / math.exp calls on the same arguments,
# once per target.

def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def oracle_ngram_distribution(model, src_slots: tuple, eng_slots: tuple = ()) -> dict[str, float]:
    """Additively smoothed P(target | context); unseen contexts are uniform."""
    _check_arity(model, src_slots)
    src_slots = tuple(src_slots) if model.ordered else tuple(sorted(src_slots))
    bucket = model.counts.get(src_slots + tuple(eng_slots), {})
    denom = sum(bucket.values()) + model.alpha * len(model.vocab)
    return {tok: (bucket.get(tok, 0) + model.alpha) / denom for tok in model.vocab}


def oracle_nb_prior(model) -> dict[str, float]:
    """The smoothed naive-Bayes target prior."""
    denom = sum(model.target_counts.values()) + model.alpha * len(model.vocab)
    return {t: (model.target_counts.get(t, 0) + model.alpha) / denom for t in model.vocab}


def oracle_nb_slot_likelihood(model, slot: int, target: str, value: str) -> float:
    """The smoothed naive-Bayes P(slot value | target)."""
    count = model.slot_counts[slot].get(target, {}).get(value, 0)
    total = model.target_counts.get(target, 0)
    return (count + model.alpha) / (total + model.alpha * len(model.slot_vocabs[slot]))


def oracle_nb_posterior(model, src_slots: tuple, eng_slots: tuple = ()) -> dict[str, float]:
    """Normalized posterior over the target vocabulary, computed in log space; a probability that
    underflows to 0.0 scores -inf, and when every score does, every target gets 0.0."""
    _check_arity(model, src_slots)
    context = tuple(src_slots) + tuple(eng_slots)
    prior = oracle_nb_prior(model)
    log_scores = []
    for target in model.vocab:
        score = _log(prior[target])
        for slot, value in enumerate(context):
            score += _log(oracle_nb_slot_likelihood(model, slot, target, value))
        log_scores.append(score)
    peak = max(log_scores)
    if peak == -math.inf:
        return dict.fromkeys(model.vocab, 0.0)
    weights = [math.exp(s - peak) for s in log_scores]
    z = _left_sum(weights)
    return {t: w / z for t, w in zip(model.vocab, weights)}


def oracle_distribution(model, src_slots: tuple, eng_slots: tuple = ()) -> dict[str, float]:
    """P(target | context) over `model.vocab`: the reference above for an n-gram or naive-Bayes
    model, and a test's stand-in model's own `distribution`."""
    if isinstance(model, NgramModel):
        return oracle_ngram_distribution(model, src_slots, eng_slots)
    if isinstance(model, NaiveBayesModel):
        return oracle_nb_posterior(model, src_slots, eng_slots)
    return model.distribution(src_slots, eng_slots)


# ---------------------------------------------------------------------------
# Beam decoding
# ---------------------------------------------------------------------------

def oracle_beam_translate(model, source: list[str], beams: int = 8) -> list[str]:
    """The n-gram / naive-Bayes beam decoder as a loop over Python tuples.

    One (cost, tokens) tuple per expansion, sorted in full at every position;
    the reference that `ettmt.ngram.beam_translate` must match exactly.

    Generation runs for at most len(source) positions. With English context
    a hypothesis finishes early when it emits EOS; with source-only context
    EOS is just another dropped emission, so the output covers every source
    position. The winner is the completed hypothesis with the highest summed
    log-probability, ties going to the one that stopped earlier and then to
    the lexicographically smaller token sequence. PAD emissions never reach
    the output. A probability that underflowed to 0.0 costs inf.
    """
    if beams < 1:
        raise ValueError(f"beam count must be >= 1, got {beams}")
    n = model.n
    padded = [PAD] * (n - 1) + list(source)
    uses_history = model.context_mode == CONTEXT_ETT_ENG

    # hypothesis: (summed -log p, emitted tokens)
    alive: list[tuple[float, tuple[str, ...]]] = [(0.0, ())]
    done: list[tuple[float, float, tuple[str, ...]]] = []
    for i in range(len(source)):
        src_slots = tuple(padded[i : i + n])
        expansions: list[tuple[float, tuple[str, ...]]] = []
        shared = None if uses_history else oracle_distribution(model, src_slots)
        for score, tokens in alive:
            if uses_history:
                history = tuple(([PAD] * n + list(tokens))[-n:])
                dist = oracle_distribution(model, src_slots, history)
            else:
                dist = shared
            for tok, p in dist.items():
                cost = score - math.log(p) if p > 0.0 else math.inf
                if tok == EOS and uses_history:
                    done.append((cost, float(i), tokens))
                else:
                    expansions.append((cost, tokens + (tok,)))
        expansions.sort(key=lambda h: (h[0], h[1]))
        alive = expansions[:beams]
        if not alive:
            break
    done.extend((score, math.inf, tokens) for score, tokens in alive)
    done.sort(key=lambda h: (h[0], h[1], h[2]))
    best_tokens = done[0][2]
    return [t for t in best_tokens if t not in (PAD, EOS)]


def former_beam_translate(model, source: list[str], beams: int = 8) -> list[str]:
    """`ettmt.ngram.beam_translate`'s beam search as it was before it memoized rows per model:
    one `model.costs` call per distinct history at each position, shared only within that
    position, and no greedy shortcut for source-only contexts (which returns the same)."""
    if beams < 1:
        raise ValueError(f"beam count must be >= 1, got {beams}")
    n = model.n
    padded = [PAD] * (n - 1) + list(source)
    uses_history = model.context_mode == CONTEXT_ETT_ENG
    vocab = model.vocab
    eos = vocab.index(EOS)
    alive: list[tuple[str, ...]] = [()]
    scores = np.zeros(1)
    done: list[tuple[float, float, tuple[str, ...]]] = []
    best_done = math.inf
    for i in range(len(source)):
        src_slots = tuple(padded[i : i + n])
        if done and best_done <= float(scores.min()):
            break
        shared: dict[tuple, np.ndarray] = {}
        rows = []
        for tokens in alive:
            history = tuple(([PAD] * n + list(tokens))[-n:]) if uses_history else ()
            if history not in shared:
                shared[history] = model.costs(src_slots, history)
            rows.append(shared[history])
        cand = scores[:, None] + np.stack(rows)
        n_open = cand.size
        if uses_history:
            finished = cand[:, eos].tolist()
            done.extend((cost, float(i), tokens) for cost, tokens in zip(finished, alive))
            best_done = min(best_done, *finished)
            cand[:, eos] = math.inf
            n_open -= len(alive)
        flat = cand.ravel()
        k = min(beams, n_open)
        picked = np.flatnonzero(flat <= np.partition(flat, k - 1)[k - 1])
        kept = np.sort(picked[np.argsort(flat[picked], kind="stable")[:k]])
        parent, tok = np.divmod(kept, len(vocab))
        scores = flat[kept]
        alive = [alive[p] + (vocab[t],) for p, t in zip(parent.tolist(), tok.tolist())]
    done.extend((score, math.inf, tokens) for score, tokens in zip(scores.tolist(), alive))
    done.sort(key=lambda h: (h[0], h[1], h[2]))
    return [t for t in done[0][2] if t not in (PAD, EOS)]


def oracle_row_summary(row: np.ndarray) -> tuple[int, float, float]:
    """(t*, m, m_lt): the row's lowest-index argmin, its cost, and the least cost before it (inf if
    none); what the models' `summary` must equal for the source-only row `costs(src_slots, ())`."""
    t = int(row.argmin())
    return t, float(row[t]), float(row[:t].min()) if t else math.inf


# ---------------------------------------------------------------------------
# The package's former text normalization
# ---------------------------------------------------------------------------
#
# ettmt.corpus normalized one character at a time before it used a fixed
# translation table and two regexes. The tables and loops are kept verbatim
# apart from names; the package must return exactly what these return.

_FORMER_CHAR_MAP = {
    "θ": "th",  # theta
    "ϑ": "th",  # theta symbol variant
    "φ": "ph",  # phi
    "ϕ": "ph",  # phi symbol variant
    "χ": "kh",  # chi
    "σ": "s",   # sigma
    "ς": "s",   # final sigma
    "ś": "sh",  # s with acute
    "⊞": "s",   # boxed s ("marked" sibilant)
    "‐": "-",   # hyphen variants fold onto the damage placeholder
    "‑": "-",
    "‒": "-",
    "–": "-",
    "—": "-",
    "―": "-",
}
_FORMER_S_LIKE = frozenset("sσς")
_FORMER_ACUTE_MARKS = frozenset("́'’´ʹ")
_FORMER_OVERCROSS = "̽"
_FORMER_SEPARATORS = frozenset("·:⋮|")


def former_normalize_with_stats(raw: str) -> tuple[str, int]:
    text = unicodedata.normalize("NFC", raw).lower()
    out: list[str] = []
    dropped = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch in _FORMER_S_LIKE and (nxt in _FORMER_ACUTE_MARKS or nxt == _FORMER_OVERCROSS):
            out.append("sh")
            i += 2
            continue
        mapped = _FORMER_CHAR_MAP.get(ch)
        if mapped is not None:
            out.append(mapped)
        elif ch in _FORMER_SEPARATORS or ch.isspace():
            out.append(" ")
        elif "a" <= ch <= "z" or ch == "-":
            out.append(ch)
        else:
            dropped += 1
        i += 1
    return " ".join("".join(out).split()), dropped


def former_normalize_english(raw: str) -> str:
    text = unicodedata.normalize("NFC", raw).lower()
    out = []
    for ch in text:
        if ch in "'’":
            continue
        if "a" <= ch <= "z" or "0" <= ch <= "9":
            out.append(ch)
        else:
            out.append(" ")
    return " ".join("".join(out).split())


# ---------------------------------------------------------------------------
# Root + suffix tokenization
# ---------------------------------------------------------------------------

def former_tokenize_suffix(text, suffixes):
    """The former suffix split: try every distinct suffix, longest first and
    alphabetical within a length, with ``str.endswith``; the first that leaves
    a root of MIN_ROOT_LEN characters or more splits the word."""
    ordered = sorted(set(suffixes), key=lambda s: (-len(s), s))
    out = []
    for token in text.split():
        for suffix in ordered:
            if len(token) - len(suffix) >= MIN_ROOT_LEN and token.endswith(suffix):
                out.append(token[: -len(suffix)])
                out.append("-" + suffix)
                break
        else:
            out.append(token)
    return out


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def oracle_translate_random(model, source, rng):
    """The former random translation: a normal length, then numpy's own weighted
    draw, ``Generator.choice(p=probs)``, which rebuilds the CDF on every call."""
    length = int(round(rng.normal(model.length_mean, model.length_std)))
    if length <= 0:
        return []
    idx = rng.choice(len(model.tokens), size=length, p=model.probs)
    return [model.tokens[i] for i in idx]
