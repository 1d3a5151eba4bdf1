#include "trace/trace.h"

#include "obs/stats.h"
#include "support/check.h"

namespace nw {

bool TraceTokenStream::Next(TaggedSymbol* out) {
  if (queued_return_ != Alphabet::kNoSymbol) {
    *out = Return(queued_return_);
    queued_return_ = Alphabet::kNoSymbol;
    if (tally_.enabled()) tally_.OnReturn();
    return true;
  }
  const std::string_view text = text_;
  while (pos_ < text.size() && byte_class::IsSpace(text[pos_])) ++pos_;
  if (pos_ >= text.size()) {
    tally_.Flush(pos_);  // end of input: tallies become visible to the sink
    return false;
  }
  size_t start = pos_;
  while (pos_ < text.size() && !byte_class::IsSpace(text[pos_])) ++pos_;
  size_t len = pos_ - start;
  bool call = text[start] == '<';
  bool ret = text[pos_ - 1] == '>';
  if (call && ret && len > 2) {
    // `<f>`: a self-contained frame — call now, return queued (the XML
    // self-closing-tag analog).
    Symbol s = alphabet_->Intern(text.substr(start + 1, len - 2));
    queued_return_ = s;
    if (tally_.enabled()) tally_.OnCall();
    *out = Call(s);
    return true;
  }
  if (call && len > 1) {
    Symbol s = alphabet_->Intern(text.substr(start + 1, len - 1));
    if (tally_.enabled()) tally_.OnCall();
    *out = Call(s);
    return true;
  }
  if (ret && len > 1) {
    Symbol s = alphabet_->Intern(text.substr(start, len - 1));
    if (tally_.enabled()) tally_.OnReturn();
    *out = Return(s);
    return true;
  }
  if (call || ret) {
    // A lone `<` or `>` names nothing: a garbage internal, not a frame.
    if (text_sym_ == Alphabet::kNoSymbol) {
      text_sym_ = alphabet_->Intern("#text");
    }
    if (tally_.enabled()) tally_.OnInternal();
    *out = Internal(text_sym_);
    return true;
  }
  // An internal event carries its own symbol — that is what event-level
  // atoms (`balanced acquire release`) step on.
  Symbol s = alphabet_->Intern(text.substr(start, len));
  if (tally_.enabled()) tally_.OnInternal();
  *out = Internal(s);
  return true;
}

NestedWord TraceToNestedWord(const std::string& text, Alphabet* alphabet) {
  NestedWord out;
  TraceTokenStream stream(text, alphabet);
  TaggedSymbol t;
  while (stream.Next(&t)) out.Push(t);
  return out;
}

Nwa BalancedFrameQuery(Symbol a, Symbol b, size_t num_symbols) {
  NW_CHECK_MSG(a < num_symbols && b < num_symbols,
               "balanced atom symbols outside the compiled space");
  // The LockDiscipline automaton of examples/program_traces.cpp,
  // generalized over (a, b): states free (accepting) and held; frames
  // carry the state at call time on the hierarchical edge, so a frame
  // must release what it acquired before returning. Missing transitions
  // are deliberate — a double `a`, a `b` while free, a frame returning
  // in the wrong state, or `a`/`b` used as a frame name kill the run
  // (the engine treats a dead run as a settled reject).
  Nwa q(num_symbols);
  StateId free_q = q.AddState(true);
  StateId held = q.AddState(false);
  StateId h_free = q.AddState(false);
  StateId h_held = q.AddState(false);
  q.set_initial(free_q);
  q.set_hier_initial(free_q);
  for (Symbol s = 0; s < num_symbols; ++s) {
    if (s == a) {
      q.SetInternal(free_q, s, held);  // double-acquire: no transition
      continue;
    }
    if (s == b) {
      q.SetInternal(held, s, free_q);  // release while free: no transition
      continue;
    }
    q.SetInternal(free_q, s, free_q);
    q.SetInternal(held, s, held);
    q.SetCall(free_q, s, free_q, h_free);
    q.SetCall(held, s, held, h_held);
    q.SetReturn(free_q, h_free, s, free_q);
    q.SetReturn(held, h_held, s, held);
    // Pending returns (log suffixes) read the hierarchical initial
    // (= free_q): the unseen caller is judged to have held nothing.
    q.SetReturn(free_q, free_q, s, free_q);
    q.SetReturn(held, free_q, s, held);
  }
  return q;
}

}  // namespace nw
