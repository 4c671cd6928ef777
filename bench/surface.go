package main

// The whole surface of the program under test that the benchmark
// touches. No other file of this package imports repro/internal/...;
// a refactoring of the serving stack that keeps these names (or
// updates this one file) keeps the benchmark building, and a reader
// can see at a glance what "from outside" means here.
//
// Deliberately absent, because ROADMAP marks them for deletion:
// engine.NewMarket/NewMarketPriced/NewMarketBudget, SummarizeLatencies,
// both stats wire frames (Conn.Stats/StatsV2), internal/strategy, the
// LP/H/brute methods, and every cmd/auctionsim flag.
//
// Methods and fields used through these types (they cannot be aliased):
//
//	workload.Instance   Queries; N Keywords Budget ClickProb
//	engine.Engine       Serve ServeOutcomes ServeOneWeighted RouteBroad
//	                    KeywordMarket ProgramEvaluations TraceRing
//	                    Ledger ShardOf Close
//	engine.Market       Run RunWeighted Bid Accounting().SpentTotal
//	stream.Server       SubmitFunc SubmitTextFunc AddAdvertiser
//	                    RemoveAdvertiser ResetBudgets Engine Close
//	stream.Stats        Submitted Served Shed Unrouted Overmatched
//	                    Revenue Epoch
//	server.Server       Addr Stream Counters Close
//	client.Conn         AuctionInto Close
//	broadmatch.Router   RouteBest
//	kwmatch.Index       Register ScoreInto
//	matching.Workspace  SelectCandidates AssignCandidatesInto
//	ta.Runner           TopKInto; ta.SliceSource Reset
//	budget.Ledger       Lane Totals ExactSpent N AttachJournal
//	journal.Writer      AppendSpend Stats Err Close
//	journal.Recovery    State.N State.Spent
//	obs.TraceRing       DumpJSON (the only reader the ring has)

import (
	"repro/internal/broadmatch"
	"repro/internal/budget"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/kwmatch"
	"repro/internal/matching"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/ta"
	"repro/internal/topk"
	"repro/internal/wire"
	"repro/internal/workload"
)

type (
	Instance   = workload.Instance
	ChurnEvent = workload.ChurnEvent

	EngineConfig = engine.Config
	Engine       = engine.Engine
	Market       = engine.Market
	MarketOpts   = engine.MarketOpts
	Outcome      = engine.Outcome
	Totals       = engine.Totals
	Method       = engine.Method

	StreamConfig = stream.Config
	StreamServer = stream.Server
	StreamStats  = stream.Stats

	NetConfig   = server.Config
	NetServer   = server.Server
	Conn        = client.Conn
	ConnOptions = client.Options

	WireOutcome  = wire.Outcome
	WireRequest  = wire.Request
	WireResponse = wire.Response

	BroadConfig = broadmatch.Config
	Router      = broadmatch.Router
	KwScratch   = kwmatch.Scratch
	KwMatch     = kwmatch.Match

	BudgetConfig = budget.Config
	Ledger       = budget.Ledger

	JournalWriter  = journal.Writer
	JournalOptions = journal.Options
	JournalSpend   = journal.Spend
	JournalStats   = journal.Stats

	TopkItem    = topk.Item
	TASource    = ta.Source
	TAStats     = ta.Stats
	SliceSource = ta.SliceSource
)

const (
	MethodRH     = engine.MethodRH
	MethodRHTALU = engine.MethodRHTALU

	OverloadShed = stream.Shed

	SubmitQueued   = stream.SubmitQueued
	SubmitShed     = stream.SubmitShed
	SubmitUnrouted = stream.SubmitUnrouted

	PolicyHard = budget.PolicyHard
	FsyncNever = journal.FsyncNever
)

var (
	generate           = workload.Generate
	attachBudgets      = workload.AttachBudgets
	bigramKeywordNames = workload.BigramKeywordNames
	textQueries        = workload.TextQueries
	scriptChurn        = workload.ScriptChurn

	newEngine     = engine.New
	newMarketOpts = engine.NewMarketOpts
	keywordSeed   = engine.KeywordSeed

	newStreamServer = stream.NewServer
	listen          = server.Listen
	dial            = client.Dial

	appendAuctionReq  = wire.AppendAuctionReq
	appendOutcomeResp = wire.AppendOutcomeResp
	newFrameReader    = wire.NewFrameReader

	newRouter  = broadmatch.New
	newKwIndex = kwmatch.New

	newLedger      = budget.NewLedger
	openJournal    = journal.Open
	recoverJournal = journal.Recover

	newWorkspace   = matching.NewWorkspace
	newTopkHeap    = topk.NewHeap
	topkSelectInto = topk.SelectInto
	newTARunner    = ta.NewRunner

	errShed     = client.ErrShed
	errRejected = client.ErrRejected
)
