#include "chain/validator.h"

#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace ici {

namespace {

/// Undo log of an in-place block apply: (outpoint, the entry a spend
/// removed), or (outpoint, nullopt) for a creation, in the order made.
using UtxoJournal = std::vector<std::pair<OutPoint, std::optional<UtxoEntry>>>;

/// UtxoSet::apply_tx, journaling each change the moment it is made. The
/// caller reserves room for every change, so recording one cannot throw.
void apply_journaled(const Transaction& tx, std::uint64_t height, UtxoSet& utxo,
                     UtxoJournal& journal) {
  for (const TxInput& in : tx.inputs()) {
    std::optional<UtxoEntry> entry = utxo.find(in.prevout);
    if (!entry) throw std::logic_error("UtxoSet::apply_tx: missing input");
    utxo.spend(in.prevout);
    journal.emplace_back(in.prevout, std::move(entry));
  }
  const Hash256& id = tx.txid();
  for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
    const OutPoint op{id, i};
    utxo.add(op, UtxoEntry{tx.outputs()[i], height, tx.is_coinbase()});
    journal.emplace_back(op, std::nullopt);
  }
}

/// Undoes `journal` in reverse order.
void roll_back(const UtxoJournal& journal, UtxoSet& utxo) {
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    if (it->second) {
      utxo.add(it->first, *it->second);
    } else {
      utxo.spend(it->first);
    }
  }
}

}  // namespace

ValidationResult Validator::check_tx_stateless(const Transaction& tx) const {
  if (tx.outputs().empty()) return ValidationResult::fail("tx has no outputs");
  if (tx.inputs().size() + tx.outputs().size() > cfg_.max_block_txs * 2)
    return ValidationResult::fail("tx too large");
  for (const TxOutput& out : tx.outputs()) {
    if (out.value == 0) return ValidationResult::fail("zero-value output");
  }

  std::unordered_set<OutPoint, OutPointHasher> seen;
  for (const TxInput& in : tx.inputs()) {
    if (!seen.insert(in.prevout).second)
      return ValidationResult::fail("duplicate input within tx");
  }

  if (cfg_.check_signatures && !tx.is_coinbase()) {
    const Bytes payload = tx.signing_payload();
    for (const TxInput& in : tx.inputs()) {
      if (!verify(in.pub, payload, in.sig)) return ValidationResult::fail("bad signature");
    }
  }
  return ValidationResult::ok();
}

ValidationResult Validator::check_tx_stateful(const Transaction& tx, const UtxoSet& utxo) const {
  if (tx.is_coinbase()) {
    if (tx.total_output() > cfg_.block_reward)
      return ValidationResult::fail("coinbase exceeds block reward");
    return ValidationResult::ok();
  }
  Amount in_value = 0;
  for (const TxInput& in : tx.inputs()) {
    const auto entry = utxo.find(in.prevout);
    if (!entry) return ValidationResult::fail("input not in UTXO set");
    if (entry->output.recipient != in.pub)
      return ValidationResult::fail("spender key does not own the output");
    in_value += entry->output.value;
  }
  if (tx.total_output() > in_value)
    return ValidationResult::fail("outputs exceed inputs");
  return ValidationResult::ok();
}

ValidationResult Validator::check_header(const BlockHeader& header,
                                         const Hash256& expected_parent,
                                         std::uint64_t expected_height) const {
  if (header.parent != expected_parent) return ValidationResult::fail("parent hash mismatch");
  if (header.height != expected_height) return ValidationResult::fail("height mismatch");
  return ValidationResult::ok();
}

ValidationResult Validator::validate_and_apply(const Block& block,
                                               const Hash256& expected_parent,
                                               std::uint64_t expected_height,
                                               UtxoSet& utxo) const {
  if (auto r = check_header(block.header(), expected_parent, expected_height); !r) return r;
  if (block.txs().empty()) return ValidationResult::fail("empty block (no coinbase)");
  if (block.txs().size() > cfg_.max_block_txs) return ValidationResult::fail("too many txs");
  if (!block.merkle_ok()) return ValidationResult::fail("merkle root mismatch");
  if (!block.txs().front().is_coinbase())
    return ValidationResult::fail("first tx must be coinbase");

  // Validate + apply sequentially in place, so intra-block spends are
  // visible. A failure or an exception rolls the journal back, leaving the
  // caller's UTXO exactly as it was without ever copying it.
  std::size_t changes = 0;
  for (const Transaction& tx : block.txs()) changes += tx.inputs().size() + tx.outputs().size();
  UtxoJournal journal;
  journal.reserve(changes);
  try {
    for (std::size_t i = 0; i < block.txs().size(); ++i) {
      const Transaction& tx = block.txs()[i];
      ValidationResult r = i > 0 && tx.is_coinbase()
                               ? ValidationResult::fail("coinbase not first")
                               : check_tx_stateless(tx);
      if (r) r = check_tx_stateful(tx, utxo);
      if (!r) {
        roll_back(journal, utxo);
        return r;
      }
      apply_journaled(tx, block.header().height, utxo, journal);
    }
  } catch (...) {
    roll_back(journal, utxo);
    throw;
  }
  return ValidationResult::ok();
}

}  // namespace ici
